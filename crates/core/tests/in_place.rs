//! Receives deposit in place: the native library writes a completing
//! receive straight into its direct buffer (or an array receive's
//! staging store) when `waitall`, `test` or `testany` consumes it. These
//! tests pin the edge cases of that path under each completion call.

use mvapich2j::datatype::{Datatype, INT};
use mvapich2j::{
    run_job, BindError, BindResult, Env, JRequest, JStatus, JobConfig, TestOutcome, Topology,
};

fn cfg2() -> JobConfig {
    JobConfig::mvapich2j(Topology::single_node(2))
}

/// How a test completes its batch of requests.
#[derive(Clone, Copy, Debug)]
enum Drain {
    Waitall,
    Test,
    Testany,
}

const DRAINS: [Drain; 3] = [Drain::Waitall, Drain::Test, Drain::Testany];

/// Complete every request in `reqs` the way `how` says; statuses come
/// back in request order.
fn drain(env: &mut Env, reqs: Vec<JRequest>, how: Drain) -> BindResult<Vec<JStatus>> {
    match how {
        Drain::Waitall => env.waitall(reqs),
        Drain::Test => {
            let mut out = Vec::new();
            for mut req in reqs {
                loop {
                    match env.test(req)? {
                        TestOutcome::Done(st) => break out.push(st),
                        TestOutcome::Pending(r) => {
                            req = r;
                            std::thread::yield_now();
                        }
                    }
                }
            }
            Ok(out)
        }
        Drain::Testany => {
            let mut out = vec![None; reqs.len()];
            let mut index: Vec<usize> = (0..reqs.len()).collect();
            let mut reqs = reqs;
            while !reqs.is_empty() {
                match env.testany(&mut reqs)? {
                    Some((i, st)) => out[index.remove(i)] = Some(st),
                    None => std::thread::yield_now(),
                }
            }
            Ok(out.into_iter().map(|s| s.expect("completed")).collect())
        }
    }
}

/// Rank 1 has posted its receives: tell rank 0 to start sending, so
/// every message meets a posted receive and completes in `drain`.
fn go(env: &mut Env) {
    let w = env.world();
    let token = env.new_direct(4);
    if env.rank() == 0 {
        env.recv_buffer(token, 1, &INT, 1, 99, w).unwrap();
    } else {
        env.send_buffer(token, 1, &INT, 0, 99, w).unwrap();
    }
}

fn fill_ints(env: &mut Env, buf: mvapich2j::DirectBuffer, vals: impl IntoIterator<Item = i32>) {
    for (i, v) in vals.into_iter().enumerate() {
        env.direct_put::<i32>(buf, 4 * i, v).unwrap();
    }
}

fn ints(env: &mut Env, buf: mvapich2j::DirectBuffer, n: usize) -> Vec<i32> {
    (0..n)
        .map(|i| env.direct_get::<i32>(buf, 4 * i).unwrap())
        .collect()
}

#[test]
fn many_receives_share_one_direct_buffer() {
    // OMB-J `bw`: a window of receives posted into one buffer. Messages
    // from one sender complete in order, so the last one lands last.
    const WINDOW: usize = 8;
    for how in DRAINS {
        // Eager and rendezvous sizes.
        for n in [16usize, 8192] {
            run_job(cfg2(), move |env| {
                let w = env.world();
                let buf = env.new_direct(4 * n);
                if env.rank() == 0 {
                    go(env);
                    for k in 0..WINDOW {
                        fill_ints(env, buf, (0..n).map(|i| (k * 100_000 + i) as i32));
                        env.send_buffer(buf, n as i32, &INT, 1, 3, w).unwrap();
                    }
                } else {
                    let reqs = (0..WINDOW)
                        .map(|_| env.irecv_buffer(buf, n as i32, &INT, 0, 3, w).unwrap())
                        .collect();
                    go(env);
                    let sts = drain(env, reqs, how).unwrap();
                    assert!(sts.iter().all(|st| st.bytes == 4 * n), "{how:?} n={n}");
                    let last = (WINDOW - 1) * 100_000;
                    let want: Vec<i32> = (0..n).map(|i| (last + i) as i32).collect();
                    assert_eq!(ints(env, buf, n), want, "{how:?} n={n}");
                }
            });
        }
    }
}

#[test]
fn vector_receive_keeps_the_gap_bytes() {
    // Four ints at stride 3: ints 1, 2, 4, 5, 7, 8 and everything past
    // the last block keep their old content.
    let dt = Datatype::vector(4, 1, 3, INT).unwrap();
    for how in DRAINS {
        let dt = dt.clone();
        run_job(cfg2(), move |env| {
            let w = env.world();
            let buf = env.new_direct(48);
            if env.rank() == 0 {
                go(env);
                fill_ints(env, buf, [10, 11, 12, 13]);
                env.send_buffer(buf, 4, &INT, 1, 4, w).unwrap();
            } else {
                fill_ints(env, buf, [-1; 12]);
                let req = env.irecv_buffer(buf, 1, &dt, 0, 4, w).unwrap();
                go(env);
                let sts = drain(env, vec![req], how).unwrap();
                assert_eq!(sts[0].bytes, 16, "{how:?}");
                assert_eq!(
                    ints(env, buf, 12),
                    [10, -1, -1, 11, -1, -1, 12, -1, -1, 13, -1, -1],
                    "{how:?}"
                );
            }
        });
    }
}

#[test]
fn truncated_receive_leaves_the_buffer_untouched() {
    for how in DRAINS {
        run_job(cfg2(), move |env| {
            let w = env.world();
            let buf = env.new_direct(32);
            if env.rank() == 0 {
                go(env);
                fill_ints(env, buf, 0..8);
                env.send_buffer(buf, 8, &INT, 1, 5, w).unwrap();
            } else {
                fill_ints(env, buf, [0x5a5a_5a5a; 8]);
                let req = env.irecv_buffer(buf, 2, &INT, 0, 5, w).unwrap();
                go(env);
                let err = drain(env, vec![req], how).unwrap_err();
                assert!(
                    matches!(
                        err,
                        BindError::Mpi(mpisim::MpiError::Truncated {
                            incoming: 32,
                            capacity: 8
                        })
                    ),
                    "{how:?}: {err:?}"
                );
                assert_eq!(ints(env, buf, 8), [0x5a5a_5a5a; 8], "{how:?}");
            }
        });
    }
}

#[test]
fn array_receive_is_deposited_in_staging_then_unstaged() {
    for how in DRAINS {
        run_job(cfg2(), move |env| {
            let w = env.world();
            let arrs = [
                env.new_array::<i32>(16).unwrap(),
                env.new_array(16).unwrap(),
            ];
            if env.rank() == 0 {
                go(env);
                for (k, &a) in arrs.iter().enumerate() {
                    for i in 0..16 {
                        env.array_set(a, i, (k * 1000 + i) as i32).unwrap();
                    }
                    env.send_array(a, 16, 1, 6, w).unwrap();
                }
            } else {
                let reqs = arrs
                    .iter()
                    .map(|&a| env.irecv_array(a, 16, 0, 6, w).unwrap())
                    .collect();
                go(env);
                let sts = drain(env, reqs, how).unwrap();
                for (k, &a) in arrs.iter().enumerate() {
                    assert_eq!(sts[k].bytes, 64, "{how:?}");
                    for i in 0..16 {
                        assert_eq!(
                            env.array_get(a, i).unwrap(),
                            (k * 1000 + i) as i32,
                            "{how:?}"
                        );
                    }
                }
            }
        });
    }
}
