//! The channel-driven ingress, end to end: N OS threads submitting
//! interleaved tenant traffic through clones of [`ServeClient`] must
//! produce per-tenant completion streams **bit-identical** to a
//! dedicated single-tenant [`MercurySession`] replaying the admission
//! order — at pool widths 1/2/8, under all three [`PacingPolicy`]s —
//! and [`ServeHandle::shutdown`] must drain with zero lost or
//! duplicated completions. Test names carry their pacing policy
//! (`saturation` / `deadline` / `manual`) so CI's pacing matrix can
//! select them with libtest filters.

use mercury_core::{MercuryConfig, MercurySession};
use mercury_serve::{
    EpochPolicy, PacingPolicy, ServeClient, ServeConfig, ServeError, ServeHandle, Server, TenantId,
};
use mercury_tensor::exec::ExecutorKind;
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;
use mercury_workloads::tenants::TenantMix;
use std::time::Duration;

/// The pool widths the determinism law is pinned at (the session-level
/// 1/2/8 convention).
const POOLS: [ExecutorKind; 3] = [
    ExecutorKind::Serial,
    ExecutorKind::Threaded { threads: 2 },
    ExecutorKind::Threaded { threads: 8 },
];

const FEATURES: usize = 16;
const OUTPUTS: usize = 8;
const TENANTS: usize = 3;
const REQUESTS: usize = 12;
const SEED: u64 = 0x1A6E;

fn mix() -> TenantMix {
    TenantMix::new(FEATURES, 3, 0.05, SEED)
}

/// FC weights for tenant `t`, identical on the serve and replay sides.
fn weights(t: usize) -> Tensor {
    Tensor::randn(&[FEATURES, OUTPUTS], &mut Rng::new(SEED + t as u64))
}

/// Builds a server with `TENANTS` fc tenants and returns it with the
/// per-tenant handles. Tenant 0 exercises an epoch policy so pacing
/// interacts with epoch boundaries too.
fn build_server(
    pool: ExecutorKind,
    pacing: PacingPolicy,
    queue_capacity: usize,
) -> (Server, Vec<(TenantId, mercury_core::LayerId)>) {
    let config = ServeConfig::builder()
        .executor(pool)
        .queue_capacity(queue_capacity)
        .batch_window(4)
        .pacing(pacing)
        .build()
        .unwrap();
    let mut server = Server::new(config).unwrap();
    let mut handles = Vec::new();
    for t in 0..TENANTS {
        let policy = if t == 0 {
            EpochPolicy::EveryRequests(5)
        } else {
            EpochPolicy::Never
        };
        let tenant = server
            .register_tenant(
                &format!("tenant-{t}"),
                MercuryConfig::default(),
                SEED + t as u64,
                policy,
            )
            .unwrap();
        let layer = server.register_fc(tenant, weights(t)).unwrap();
        handles.push((tenant, layer));
    }
    (server, handles)
}

/// Replays tenant `t`'s stream through a dedicated synchronous session,
/// mirroring its epoch policy at exact request counts.
fn dedicated_replay(t: usize) -> Vec<mercury_core::LayerForward> {
    let mut session = MercurySession::new(MercuryConfig::default(), SEED + t as u64).unwrap();
    let layer = session.register_fc(weights(t)).unwrap();
    let mut outputs = Vec::new();
    for (i, input) in mix().tenant_stream(t, REQUESTS).into_iter().enumerate() {
        outputs.push(session.submit(layer, &input).unwrap());
        if t == 0 && (i as u64 + 1) % 5 == 0 {
            session.advance_epoch();
        }
    }
    outputs
}

/// The core law: one submitting thread per tenant through cloned
/// clients, completions reassembled per tenant, asserted bit-identical
/// to the dedicated replay; shutdown loses and duplicates nothing.
fn concurrent_clients_match_replay(pacing: PacingPolicy) {
    let reference: Vec<Vec<mercury_core::LayerForward>> =
        (0..TENANTS).map(dedicated_replay).collect();
    for pool in POOLS {
        let (server, handles) = build_server(pool, pacing, 2 * REQUESTS);
        let handle = server.serve();
        let root = handle.client();

        // Under Manual pacing nothing ticks until shutdown's drain, so
        // wait() would deadlock the submitting threads; collect tickets
        // first and redeem them after shutdown has drained.
        let tickets: Vec<Vec<_>> = std::thread::scope(|scope| {
            let workers: Vec<_> = handles
                .iter()
                .enumerate()
                .map(|(t, &(tenant, layer))| {
                    let client = root.clone();
                    let stream = mix().tenant_stream(t, REQUESTS);
                    scope.spawn(move || {
                        stream
                            .into_iter()
                            .map(|input| client.submit(tenant, layer, input).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });

        let server = handle.shutdown();
        for (t, &(tenant, _)) in handles.iter().enumerate() {
            assert_eq!(
                server.served(tenant),
                Some(REQUESTS as u64),
                "{pool:?}/{pacing:?}: tenant {t} lost work across shutdown"
            );
        }

        for (t, (tenant_tickets, want)) in tickets.into_iter().zip(&reference).enumerate() {
            assert_eq!(tenant_tickets.len(), want.len());
            for (i, (ticket, expected)) in tenant_tickets.into_iter().zip(want).enumerate() {
                // Submission order is admission order: seq is dense.
                assert_eq!(
                    ticket.id().seq,
                    i as u64,
                    "{pool:?}/{pacing:?}: tenant {t} FIFO order"
                );
                let got = ticket.wait().unwrap();
                assert_eq!(
                    &got, expected,
                    "{pool:?}/{pacing:?}: tenant {t} request {i} diverged from replay"
                );
            }
        }
    }
}

#[test]
fn concurrent_clients_match_dedicated_replay_under_saturation_pacing() {
    concurrent_clients_match_replay(PacingPolicy::Saturation);
}

#[test]
fn concurrent_clients_match_dedicated_replay_under_deadline_pacing() {
    concurrent_clients_match_replay(PacingPolicy::Deadline(Duration::from_millis(1)));
}

#[test]
fn concurrent_clients_match_dedicated_replay_under_manual_pacing() {
    concurrent_clients_match_replay(PacingPolicy::Manual);
}

/// Two threads hammering the *same* tenant through separate clients:
/// admission interleaving is nondeterministic, but every request knows
/// its admitted seq, and replaying the inputs in seq order through a
/// dedicated session must reproduce every output bit for bit.
#[test]
fn shared_tenant_reassembles_by_seq_under_saturation_pacing() {
    for pool in POOLS {
        let (server, handles) = build_server(pool, PacingPolicy::Saturation, 4 * REQUESTS);
        let (tenant, layer) = handles[1]; // Never policy: seq alone orders the replay
        let handle = server.serve();
        let root = handle.client();

        let halves: Vec<Vec<(u64, Tensor, mercury_core::LayerForward)>> =
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..2)
                    .map(|half| {
                        let client = root.clone();
                        // Distinct inputs per half so the test can tell
                        // which input landed on which seq.
                        let stream = mix().tenant_stream(10 + half, REQUESTS);
                        scope.spawn(move || {
                            stream
                                .into_iter()
                                .map(|input| {
                                    let ticket =
                                        client.submit(tenant, layer, input.clone()).unwrap();
                                    let seq = ticket.id().seq;
                                    (seq, input, ticket.wait().unwrap())
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
        drop(handle);

        let mut by_seq: Vec<(u64, Tensor, mercury_core::LayerForward)> =
            halves.into_iter().flatten().collect();
        by_seq.sort_by_key(|(seq, _, _)| *seq);
        // Zero lost, zero duplicated: seqs are exactly 0..2*REQUESTS.
        let seqs: Vec<u64> = by_seq.iter().map(|(s, _, _)| *s).collect();
        assert_eq!(
            seqs,
            (0..2 * REQUESTS as u64).collect::<Vec<_>>(),
            "{pool:?}"
        );

        let mut replay = MercurySession::new(MercuryConfig::default(), SEED + 1).unwrap();
        let rlayer = replay.register_fc(weights(1)).unwrap();
        for (seq, input, got) in &by_seq {
            let want = replay.submit(rlayer, input).unwrap();
            assert_eq!(got, &want, "{pool:?}: seq {seq}");
        }
    }
}

/// Backpressure stays typed and lands at the submit call site: under
/// manual pacing nothing drains, so the bounded queue fills and the
/// next submit gets `QueueFull`; one explicit tick frees a window.
#[test]
fn queue_full_surfaces_at_submit_under_manual_pacing() {
    let capacity = 4;
    let (server, handles) = build_server(ExecutorKind::Serial, PacingPolicy::Manual, capacity);
    let (tenant, layer) = handles[1];
    let handle = server.serve();
    let client = handle.client();
    let stream = mix().tenant_stream(1, capacity + 1);

    let mut tickets = Vec::new();
    for (i, input) in stream.iter().enumerate() {
        let verdict = client.submit(tenant, layer, input.clone());
        if i < capacity {
            tickets.push(verdict.unwrap());
        } else {
            assert_eq!(
                verdict.unwrap_err(),
                ServeError::QueueFull { tenant, capacity },
                "submit {i} must be refused, not buffered"
            );
        }
    }

    // The explicit lever serves one window (batch_window = 4), after
    // which the refused request is admissible.
    let report = handle.tick_now().unwrap();
    assert!(!report.idle);
    assert_eq!(report.completed, 4);
    tickets.push(
        client
            .submit(tenant, layer, stream[capacity].clone())
            .unwrap(),
    );

    let server = handle.shutdown();
    assert_eq!(server.served(tenant), Some(capacity as u64 + 1));
    for (i, ticket) in tickets.into_iter().enumerate() {
        assert!(ticket.wait().is_ok(), "request {i}");
    }
}

/// `tick_now` is the manual pacing lever and reports what it did; an
/// idle tick is observable and does not advance the tick counter, so
/// eviction-log tick numbers never drift under manual polling either.
#[test]
fn tick_now_reports_idle_and_served_work_under_manual_pacing() {
    let (server, handles) = build_server(ExecutorKind::Serial, PacingPolicy::Manual, 8);
    let (tenant, layer) = handles[2];
    let handle = server.serve();
    let client = handle.client();

    let idle = handle.tick_now().unwrap();
    assert!(idle.idle);
    assert_eq!(idle.tick, 0, "idle ticks do not advance the counter");

    let ticket = client
        .submit(tenant, layer, mix().tenant_stream(2, 1).remove(0))
        .unwrap();
    // Nothing ticks until the lever is pulled: the ticket stays pending.
    let ticket = match ticket.try_take() {
        Err(pending) => pending,
        Ok(result) => panic!("manual pacing served without tick_now: {result:?}"),
    };

    let served = handle.tick_now().unwrap();
    assert!(!served.idle);
    assert_eq!(served.tick, 1);
    assert_eq!(served.completed, 1);
    let forward = ticket
        .try_take()
        .expect("completed after tick_now")
        .unwrap();
    assert_eq!(forward.output.shape(), &[1, OUTPUTS]);
    drop(handle);
}

/// Clients outliving the endpoint get the typed `Stopped`, never a
/// hang: submits racing past shutdown are refused, tickets already
/// admitted redeem normally.
#[test]
fn submits_after_shutdown_are_stopped_under_saturation_pacing() {
    let (server, handles) = build_server(ExecutorKind::Serial, PacingPolicy::Saturation, 8);
    let (tenant, layer) = handles[0];
    let handle = server.serve();
    let client = handle.client();
    let clone: ServeClient = client.clone();

    let ticket = client
        .submit(tenant, layer, mix().tenant_stream(0, 1).remove(0))
        .unwrap();
    let server = handle.shutdown();
    assert_eq!(server.served(tenant), Some(1));
    // The admitted request drained to its ticket before shutdown
    // returned; only new work is refused.
    assert!(ticket.wait().is_ok());
    for c in [client, clone] {
        assert_eq!(
            c.submit(tenant, layer, mix().tenant_stream(0, 1).remove(0))
                .unwrap_err(),
            ServeError::Stopped
        );
    }
}

/// Admission errors keep their types across the channel: ids minted by
/// a *different* server are refused at submit, exactly as the
/// synchronous `enqueue` refuses them.
#[test]
fn foreign_ids_are_refused_at_submit_under_saturation_pacing() {
    let (server, handles) = build_server(ExecutorKind::Serial, PacingPolicy::Saturation, 8);
    let (_, layer) = handles[0];
    let (other_server, other_handles) =
        build_server(ExecutorKind::Serial, PacingPolicy::Saturation, 8);
    let (foreign_tenant, _) = other_handles[0];
    drop(other_server);

    let handle: ServeHandle = server.serve();
    let client = handle.client();
    assert_eq!(
        client
            .submit(foreign_tenant, layer, mix().tenant_stream(0, 1).remove(0))
            .unwrap_err(),
        ServeError::UnknownTenant(foreign_tenant)
    );
    drop(handle);
}
