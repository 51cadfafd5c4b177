//! Multi-tenant serving through `mercury-serve`, end to end: interleaved
//! tenant traffic through one [`Server`] on a shared pool must be
//! **per-tenant bit-identical** to a dedicated single-tenant
//! [`MercurySession`] replaying the same admission order — at pool
//! widths 1/2/8 — and the global memory budget must hold its invariants
//! under streaming load (total `bank_bytes` ≤ budget after every tick,
//! evictions observable, the just-served tenant evicted only as a last
//! resort). The fault-injected variant (one tenant poisoned mid-stream
//! while its neighbour replays bit-identically) lives at the bottom,
//! gated on the `fault-inject` feature like the chaos suite.

use mercury_core::{LayerId, MercuryConfig, MercurySession};
use mercury_serve::{Completion, EpochPolicy, ServeConfig, Server, TenantId};
use mercury_tensor::exec::ExecutorKind;
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;

/// The pool widths the determinism law is pinned at (the serve satellite
/// mirrors the session-level 1/2/8 convention).
const POOLS: [ExecutorKind; 3] = [
    ExecutorKind::Serial,
    ExecutorKind::Threaded { threads: 2 },
    ExecutorKind::Threaded { threads: 8 },
];

/// One tenant's scripted traffic: its session seed, its layer kind, its
/// epoch policy, and the deterministic request stream.
struct Script {
    name: &'static str,
    seed: u64,
    policy: EpochPolicy,
    kind: LayerKind,
    inputs: Vec<Tensor>,
}

#[derive(Clone, Copy, PartialEq)]
enum LayerKind {
    Conv,
    Fc,
    Attention,
}

fn scripts() -> Vec<Script> {
    let mut rng = Rng::new(0xA11CE);
    // Small pools of popular payloads per tenant, service-style: repeats
    // give the banked caches real reuse to persist (and the budget test
    // real bytes to evict).
    let conv_pool: Vec<Tensor> = (0..3)
        .map(|_| Tensor::randn(&[1, 8, 8], &mut rng))
        .collect();
    let fc_pool: Vec<Tensor> = (0..3).map(|_| Tensor::randn(&[2, 8], &mut rng)).collect();
    let att_pool: Vec<Tensor> = (0..2).map(|_| Tensor::randn(&[4, 5], &mut rng)).collect();
    vec![
        Script {
            name: "conv-tenant",
            seed: 31,
            policy: EpochPolicy::EveryRequests(4),
            kind: LayerKind::Conv,
            inputs: (0..9)
                .map(|i| conv_pool[i % conv_pool.len()].clone())
                .collect(),
        },
        Script {
            name: "fc-tenant",
            seed: 32,
            policy: EpochPolicy::Never,
            kind: LayerKind::Fc,
            inputs: (0..11)
                .map(|i| fc_pool[i % fc_pool.len()].clone())
                .collect(),
        },
        Script {
            name: "att-tenant",
            seed: 33,
            policy: EpochPolicy::Never,
            kind: LayerKind::Attention,
            inputs: (0..7)
                .map(|i| att_pool[i % att_pool.len()].clone())
                .collect(),
        },
    ]
}

/// Registers a script's layer on any session-like target through the
/// server (`Some`) or a dedicated session (`None`).
fn register_layer(
    kind: LayerKind,
    seed: u64,
    server: Option<(&mut Server, TenantId)>,
    session: Option<&mut MercurySession>,
) -> LayerId {
    // The layer weights derive from the tenant seed, so the server-side
    // and replay-side layers are identical.
    let mut rng = Rng::new(seed ^ 0xFEED);
    match kind {
        LayerKind::Conv => {
            let kernels = Tensor::randn(&[2, 1, 3, 3], &mut rng);
            match (server, session) {
                (Some((srv, t)), None) => srv.register_conv(t, kernels, 1, 0).unwrap(),
                (None, Some(s)) => s.register_conv(kernels, 1, 0).unwrap(),
                _ => unreachable!("exactly one target"),
            }
        }
        LayerKind::Fc => {
            let weights = Tensor::randn(&[8, 4], &mut rng);
            match (server, session) {
                (Some((srv, t)), None) => srv.register_fc(t, weights).unwrap(),
                (None, Some(s)) => s.register_fc(weights).unwrap(),
                _ => unreachable!("exactly one target"),
            }
        }
        LayerKind::Attention => match (server, session) {
            (Some((srv, t)), None) => srv.register_attention(t).unwrap(),
            (None, Some(s)) => s.register_attention().unwrap(),
            _ => unreachable!("exactly one target"),
        },
    }
}

/// Drives the scripts through one server interleaved (admission
/// round-robins two requests per tenant between ticks) and returns each
/// tenant's completions in per-tenant sequence order.
fn serve_interleaved(pool: ExecutorKind, budget: Option<usize>) -> (Server, Vec<Vec<Completion>>) {
    let config = ServeConfig::builder()
        .executor(pool)
        .queue_capacity(32)
        .batch_window(3) // misaligned with both pool sizes and policies
        .memory_budget(budget)
        .build()
        .unwrap();
    let mut server = Server::new(config).unwrap();
    let scripts = scripts();
    let handles: Vec<(TenantId, LayerId)> = scripts
        .iter()
        .map(|s| {
            let tenant = server
                .register_tenant(s.name, MercuryConfig::default(), s.seed, s.policy)
                .unwrap();
            let layer = register_layer(s.kind, s.seed, Some((&mut server, tenant)), None);
            (tenant, layer)
        })
        .collect();

    let mut streams: Vec<std::vec::IntoIter<Tensor>> =
        scripts.into_iter().map(|s| s.inputs.into_iter()).collect();
    let mut per_tenant: Vec<Vec<Completion>> = (0..handles.len()).map(|_| Vec::new()).collect();
    loop {
        let mut admitted = false;
        for (t, &(tenant, layer)) in handles.iter().enumerate() {
            for input in streams[t].by_ref().take(2) {
                server.enqueue(tenant, layer, input).unwrap();
                admitted = true;
            }
        }
        let report = server.tick();
        if let Some(cap) = budget {
            assert!(
                server.bank_bytes() <= cap,
                "budget invariant violated after tick {}",
                report.tick
            );
        }
        let drained = server.tenant_ids().all(|t| server.queued(t) == Some(0));
        for completion in server.drain_completions() {
            let index = handles
                .iter()
                .position(|&(t, _)| t == completion.id.tenant)
                .unwrap();
            per_tenant[index].push(completion);
        }
        if !admitted && drained {
            break;
        }
    }
    (server, per_tenant)
}

/// Replays one script through a dedicated single-tenant session,
/// mirroring the epoch policy at exact request counts.
fn dedicated_replay(script: &Script) -> Vec<mercury_core::LayerForward> {
    let mut session = MercurySession::new(MercuryConfig::default(), script.seed).unwrap();
    let layer = register_layer(script.kind, script.seed, None, Some(&mut session));
    let mut outputs = Vec::new();
    for (i, input) in script.inputs.iter().enumerate() {
        outputs.push(session.submit(layer, input).unwrap());
        if let EpochPolicy::EveryRequests(n) = script.policy {
            if (i as u64 + 1) % n == 0 {
                session.advance_epoch();
            }
        }
    }
    outputs
}

#[test]
fn interleaved_tenants_match_dedicated_replay_at_every_pool_width() {
    let reference: Vec<Vec<mercury_core::LayerForward>> =
        scripts().iter().map(dedicated_replay).collect();
    for pool in POOLS {
        let (_, per_tenant) = serve_interleaved(pool, None);
        for (t, (completions, want)) in per_tenant.iter().zip(&reference).enumerate() {
            assert_eq!(completions.len(), want.len(), "{pool:?}: tenant {t} count");
            for (i, (completion, expected)) in completions.iter().zip(want).enumerate() {
                assert_eq!(
                    completion.id.seq, i as u64,
                    "{pool:?}: tenant {t} FIFO order"
                );
                let got = completion.result.as_ref().unwrap();
                assert_eq!(
                    got, expected,
                    "{pool:?}: tenant {t} request {i} output diverged from dedicated replay"
                );
            }
        }
    }
}

#[test]
fn manual_epoch_lever_mirrors_dedicated_replay() {
    // An operator advancing a tenant's epoch mid-stream at a recorded
    // request count replays exactly: the server-side boundary lands
    // between ticks, never inside a batch.
    let script = &scripts()[1]; // fc tenant, Never policy → manual lever
    let config = ServeConfig::builder()
        .executor(ExecutorKind::Threaded { threads: 2 })
        .queue_capacity(32)
        .batch_window(2)
        .build()
        .unwrap();
    let mut server = Server::new(config).unwrap();
    let tenant = server
        .register_tenant(
            script.name,
            MercuryConfig::default(),
            script.seed,
            script.policy,
        )
        .unwrap();
    let layer = register_layer(script.kind, script.seed, Some((&mut server, tenant)), None);

    let mut completions = Vec::new();
    let mut advanced_at = None;
    for input in &script.inputs {
        server.enqueue(tenant, layer, input.clone()).unwrap();
        server.tick();
        completions.extend(server.drain_completions());
        // After roughly half the stream, pull the lever once.
        if advanced_at.is_none() && server.served(tenant).unwrap() >= 5 {
            server.advance_epoch(tenant).unwrap();
            advanced_at = Some(server.served(tenant).unwrap());
        }
    }
    let advanced_at = advanced_at.unwrap();

    let mut replay = MercurySession::new(MercuryConfig::default(), script.seed).unwrap();
    let rlayer = register_layer(script.kind, script.seed, None, Some(&mut replay));
    for (i, input) in script.inputs.iter().enumerate() {
        let want = replay.submit(rlayer, input).unwrap();
        let got = completions[i].result.as_ref().unwrap();
        assert_eq!(got, &want, "request {i}");
        if (i as u64 + 1) == advanced_at {
            replay.advance_epoch();
        }
    }
}

#[test]
fn budget_invariants_hold_under_interleaved_load() {
    // Find the unconstrained working set first, then rerun under a
    // budget that cannot hold all tenants at once.
    let (open_server, _) = serve_interleaved(ExecutorKind::Serial, None);
    let working_set = open_server.bank_bytes();
    assert!(working_set > 0, "streams must bank state");
    assert_eq!(open_server.evictions(), 0, "no budget, no evictions");

    let budget = working_set / 3;
    for pool in POOLS {
        // serve_interleaved asserts `bank_bytes <= budget` after every
        // tick internally.
        let (server, per_tenant) = serve_interleaved(pool, Some(budget));
        assert!(
            server.evictions() > 0,
            "{pool:?}: a budget below the working set must evict"
        );
        for eviction in server.eviction_log() {
            assert!(eviction.bytes_freed > 0, "{pool:?}: empty eviction logged");
            assert!(eviction.tick > 0);
        }
        // Eviction changes reuse statistics, never availability: every
        // request still completed, in FIFO order, successfully.
        for (t, completions) in per_tenant.iter().enumerate() {
            for (i, completion) in completions.iter().enumerate() {
                assert_eq!(completion.id.seq, i as u64, "{pool:?}: tenant {t}");
                assert!(completion.result.is_ok(), "{pool:?}: tenant {t} req {i}");
            }
        }
    }
}

#[test]
fn just_served_tenant_survives_eviction_while_idle_bytes_remain() {
    // Alternate single-tenant service under a budget that holds exactly
    // one tenant's bank: every breach must claim the *idle* tenant, so
    // the tenant served in a tick always retains its bank through that
    // tick's enforcement.
    let scripts = scripts();
    let fc = &scripts[1];
    let make = |budget| {
        let config = ServeConfig::builder()
            .queue_capacity(16)
            .batch_window(4)
            .memory_budget(budget)
            .build()
            .unwrap();
        let mut server = Server::new(config).unwrap();
        let a = server
            .register_tenant("a", MercuryConfig::default(), fc.seed, EpochPolicy::Never)
            .unwrap();
        let b = server
            .register_tenant(
                "b",
                MercuryConfig::default(),
                fc.seed + 1,
                EpochPolicy::Never,
            )
            .unwrap();
        let la = register_layer(LayerKind::Fc, fc.seed, Some((&mut server, a)), None);
        let lb = register_layer(LayerKind::Fc, fc.seed + 1, Some((&mut server, b)), None);
        (server, [(a, la), (b, lb)])
    };

    // Measure one tenant's steady-state bank.
    let (mut probe, handles) = make(None);
    for input in fc.inputs.iter().take(4) {
        probe
            .enqueue(handles[0].0, handles[0].1, input.clone())
            .unwrap();
    }
    probe.tick();
    let one_bank = probe.bank_bytes();
    assert!(one_bank > 0);

    let (mut server, handles) = make(Some(one_bank));
    for round in 0..6 {
        let (tenant, layer) = handles[round % 2];
        for input in fc.inputs.iter().take(4) {
            server.enqueue(tenant, layer, input.clone()).unwrap();
        }
        let report = server.tick();
        assert!(server.bank_bytes() <= one_bank, "round {round}");
        for eviction in &report.evictions {
            assert_ne!(
                eviction.tenant, tenant,
                "round {round}: the budget evicted the tenant being served \
                 while the idle tenant still held bytes"
            );
        }
        assert!(
            server.session(tenant).unwrap().bank_bytes() > 0,
            "round {round}: the served tenant must retain its fresh bank"
        );
    }
    assert!(server.evictions() > 0, "alternating service must evict");
}

/// Poisoning mid-stream: the faulted tenant answers typed errors, the
/// neighbour replays bit-identically, and explicit recovery restores
/// service — at every pool width. Gated like the chaos suite: the
/// injection points only exist under `fault-inject`.
#[cfg(feature = "fault-inject")]
mod poisoned {
    use super::*;
    use mercury_core::{LayerHealth, MercuryError};
    use mercury_faults::{harness, FaultSite, FaultSpec};
    use mercury_serve::RecoveryPolicy;

    #[test]
    fn poisoned_tenant_is_contained_and_neighbour_replays_identically() {
        let scripts = scripts();
        let conv = &scripts[0];
        let fc = &scripts[1];
        let reference = dedicated_replay(fc);
        for pool in POOLS {
            // Manual recovery so the poisoned tenant stays fenced long
            // enough to observe the typed errors.
            let config = ServeConfig::builder()
                .executor(pool)
                .queue_capacity(32)
                .batch_window(3)
                .recovery(RecoveryPolicy::Manual)
                .build()
                .unwrap();
            let mut server = Server::new(config).unwrap();
            let pt = server
                .register_tenant(
                    "poisoned",
                    MercuryConfig::default(),
                    conv.seed,
                    EpochPolicy::Never,
                )
                .unwrap();
            let pl = register_layer(LayerKind::Conv, conv.seed, Some((&mut server, pt)), None);
            let ht = server
                .register_tenant("healthy", MercuryConfig::default(), fc.seed, fc.policy)
                .unwrap();
            let hl = register_layer(LayerKind::Fc, fc.seed, Some((&mut server, ht)), None);

            let h = harness();
            // Only the conv tenant emits ChannelShard events, so the
            // ordinal is deterministic however the pool schedules: the
            // 2nd conv request faults (each [1,8,8] input is one channel
            // = one event).
            h.arm(FaultSpec::panic_at(FaultSite::ChannelShard, 2));

            let mut fc_completions = Vec::new();
            let mut conv_results = Vec::new();
            let mut conv_stream = conv.inputs.iter();
            for input in &fc.inputs {
                server.enqueue(ht, hl, input.clone()).unwrap();
                if let Some(c) = conv_stream.next() {
                    server.enqueue(pt, pl, c.clone()).unwrap();
                }
                server.tick();
                for completion in server.drain_completions() {
                    if completion.id.tenant == ht {
                        fc_completions.push(completion);
                    } else {
                        conv_results.push(completion.result);
                    }
                }
            }
            assert_eq!(h.fired().len(), 1, "{pool:?}");

            // The poisoned tenant: request 1 fine, request 2 the panic,
            // every later request the typed Poisoned refusal.
            assert!(conv_results[0].is_ok(), "{pool:?}");
            assert!(
                matches!(&conv_results[1], Err(MercuryError::EnginePanic { layer, .. }) if *layer == pl),
                "{pool:?}: {:?}",
                conv_results[1]
            );
            for (i, later) in conv_results.iter().enumerate().skip(2) {
                assert_eq!(
                    later.as_ref().unwrap_err(),
                    &MercuryError::Poisoned(pl),
                    "{pool:?}: request {i}"
                );
            }
            assert_eq!(
                server.session(pt).unwrap().layer_health(pl),
                Some(LayerHealth::Poisoned),
                "{pool:?}"
            );

            // The neighbour, bit for bit.
            for (i, (completion, want)) in fc_completions.iter().zip(&reference).enumerate() {
                let got = completion.result.as_ref().unwrap();
                assert_eq!(got, want, "{pool:?}: request {i}");
            }

            // Explicit recovery restores service in degraded warm-up.
            server.recover(pt, pl).unwrap();
            server.enqueue(pt, pl, conv.inputs[0].clone()).unwrap();
            server.tick();
            let completions = server.drain_completions();
            let recovered = completions[0].result.as_ref().unwrap();
            assert!(recovered.degraded, "{pool:?}");
        }
    }

    #[test]
    fn immediate_policy_auto_recovers_between_ticks() {
        // Default policy: the tick that surfaces the poison also
        // quarantines and re-enters the layer, and the report says so.
        let scripts = scripts();
        let conv = &scripts[0];
        let config = ServeConfig::builder()
            .queue_capacity(16)
            .batch_window(4)
            .build()
            .unwrap();
        assert_eq!(config.recovery, RecoveryPolicy::Immediate);
        let mut server = Server::new(config).unwrap();
        let tenant = server
            .register_tenant("t", MercuryConfig::default(), conv.seed, EpochPolicy::Never)
            .unwrap();
        let layer = register_layer(
            LayerKind::Conv,
            conv.seed,
            Some((&mut server, tenant)),
            None,
        );

        let h = harness();
        h.arm(FaultSpec::panic_at(FaultSite::ChannelShard, 1));
        server
            .enqueue(tenant, layer, conv.inputs[0].clone())
            .unwrap();
        let report = server.tick();
        assert!(matches!(
            server.drain_completions()[0].result,
            Err(MercuryError::EnginePanic { .. })
        ));
        assert_eq!(report.recovered, vec![(tenant, layer)]);
        assert_ne!(
            server.session(tenant).unwrap().layer_health(layer),
            Some(LayerHealth::Poisoned),
            "auto-recovery re-entered the layer before the tick returned"
        );

        // The next request serves (degraded warm-up), no operator action.
        server
            .enqueue(tenant, layer, conv.inputs[0].clone())
            .unwrap();
        let next = server.tick();
        let completions = server.drain_completions();
        let fwd = completions[0].result.as_ref().unwrap();
        assert!(fwd.degraded);
        assert!(next.recovered.is_empty());
    }
}
