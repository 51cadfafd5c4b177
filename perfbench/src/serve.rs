//! `serve-tenants`: a `mercury_serve::Server` driven through its
//! synchronous embedding API (`enqueue` / `tick` / `drain_completions`)
//! from one thread. Every tenant owns a conv layer fed multi-channel maps
//! built from `ImageDataset` samples and an FC layer fed `TenantMix` rows.
//! Each round every tenant enqueues one full batching window, one tick
//! serves it, and one drain collects it. The memory budget sits below the
//! tenants' summed bank working set, so the budget's clock evicts.
//!
//! One item is one request, timed from the start of its `enqueue` to the
//! end of the `drain_completions` that returns it.

use std::collections::HashMap;
use std::time::Instant;

use mercury_core::stats::LayerStats;
use mercury_core::{LayerId, MercuryConfig};
use mercury_serve::{EpochPolicy, RequestId, ServeConfig, Server, TenantId};
use mercury_tensor::conv::conv2d_multi;
use mercury_tensor::exec::ExecutorKind;
use mercury_tensor::ops::matmul;
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;
use mercury_workloads::images::ImageDataset;
use mercury_workloads::tenants::TenantMix;

use crate::trace::Tracer;
use crate::{ns_between, ns_since, Args, Clock, Report, Setup, MIN_LATENCY_SAMPLES};

const TENANTS: usize = 4;
/// Requests per tenant per round: one full batching window, half conv
/// and half FC.
const WINDOW: usize = 8;
const SIDE: usize = 16;
const CONV_CHANNELS: usize = 4;
const CONV_FILTERS: usize = 8;
const FC_FEATURES: usize = 64;
const FC_OUTPUTS: usize = 32;
const FC_CLUSTERS: usize = 5;
const FC_NOISE: f32 = 0.02;
const IMAGE_CLASSES: usize = 8;
const IMAGE_NOISE: f32 = 0.05;
/// FC rows generated per tenant, replayed in order for the whole run.
const FC_STREAM: usize = 1024;
/// Rounds whose counters are reported: a fixed prefix, so they are
/// deterministic for a seed.
const PREFIX_ROUNDS: usize = 64;
/// Rounds whose every output is checked against exact compute: the last
/// rounds of the prefix, so the check and its timing see warm caches.
const CHECK_ROUNDS: std::ops::Range<usize> = PREFIX_ROUNDS - 4..PREFIX_ROUNDS;
/// Rounds generated per input round.
const INPUT_ROUNDS: usize = 16;
/// Layer weights are part of the program: the same for every seed.
const WEIGHT_SEED: u64 = 0x5EED_5E4E;
/// Global cap on summed bank bytes, below the four tenants' working set.
const MEMORY_BUDGET: usize = 96 << 10;
/// Server constructions, with their registrations, per setup sample.
const SETUP_BATCH: usize = 4;

/// One tenant's registered layers and their weights, which the exact
/// check recomputes against.
struct Tenant {
    id: TenantId,
    conv: LayerId,
    fc: LayerId,
    kernels: Tensor,
    weights: Tensor,
}

fn build_server() -> (Server, Vec<Tenant>) {
    let config = ServeConfig::builder()
        .executor(ExecutorKind::Serial)
        .queue_capacity(WINDOW)
        .batch_window(WINDOW)
        .memory_budget(Some(MEMORY_BUDGET))
        .build()
        .expect("static configuration is valid");
    let mut server = Server::new(config).expect("server creation");
    let session_config = MercuryConfig::builder()
        .executor(ExecutorKind::Serial)
        .build()
        .expect("paper-default configuration is valid");
    let mut rng = Rng::new(WEIGHT_SEED);
    let mut tenants = Vec::new();
    for t in 0..TENANTS {
        let id = server
            .register_tenant(
                &format!("tenant-{t}"),
                session_config,
                WEIGHT_SEED + t as u64,
                EpochPolicy::Never,
            )
            .expect("tenant registration");
        let kernels = Tensor::randn(&[CONV_FILTERS, CONV_CHANNELS, 3, 3], &mut rng);
        let weights = Tensor::randn(&[FC_FEATURES, FC_OUTPUTS], &mut rng);
        let conv = server
            .register_conv(id, kernels.clone(), 1, 1)
            .expect("conv registration");
        let fc = server
            .register_fc(id, weights.clone())
            .expect("fc registration");
        tenants.push(Tenant {
            id,
            conv,
            fc,
            kernels,
            weights,
        });
    }
    (server, tenants)
}

/// One request of a round, kept until its completion is drained.
struct Pending {
    item: u64,
    admitted: Instant,
    exact: Option<(bool, Tensor)>,
    tenant: usize,
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let (mut setup, (mut server, tenants)) = Setup::start(SETUP_BATCH, build_server);
    report.executor = format!(
        "ServeConfig.executor = {:?} (shared pool: {}), tenant MercuryConfig.executor = {:?}",
        server.config().executor,
        if server.pool_stats().is_none() {
            "none, serial"
        } else {
            "threaded"
        },
        server
            .session(tenants[0].id)
            .expect("registered tenant")
            .config()
            .executor,
    );

    let mix = TenantMix::new(FC_FEATURES, FC_CLUSTERS, FC_NOISE, args.seed);
    let fc_rows = mix.client_streams(TENANTS, FC_STREAM);
    let mut image_rng = Rng::new(args.seed ^ 0x494d_4147);
    let images = ImageDataset::new(IMAGE_CLASSES, SIDE, IMAGE_NOISE, &mut image_rng);

    // Each tenant's conv maps for the next INPUT_ROUNDS rounds.
    let mut maps: Vec<Vec<Tensor>> = vec![Vec::new(); TENANTS];
    let mut fc_cursor = 0usize;
    let mut rel_errors = Vec::new();
    let mut exact_ns = Vec::new();
    let mut bank_bytes_max = 0usize;
    let mut tick_completed = 0usize;
    let mut prefix_evictions = 0u64;
    let mut prefix_hit_rate = 0.0f64;
    let clock = Clock::start(
        args.seconds,
        MIN_LATENCY_SAMPLES
            .div_ceil(TENANTS * WINDOW)
            .max(PREFIX_ROUNDS),
    );
    let mut round = 0usize;
    let mut next_item = 0u64;
    while !clock.done(round) {
        setup.sample_if_due(&clock);
        if maps[0].is_empty() {
            for (t, tenant_maps) in maps.iter_mut().enumerate() {
                *tenant_maps = (0..INPUT_ROUNDS * WINDOW / 2)
                    .map(|_| conv_map(&images, t, &mut image_rng))
                    .collect();
            }
        }
        let mut inputs = Vec::with_capacity(TENANTS * WINDOW);
        for (t, tenant) in tenants.iter().enumerate() {
            for k in 0..WINDOW {
                let (layer, input) = if k % 2 == 0 {
                    (tenant.conv, maps[t].pop().expect("refilled above"))
                } else {
                    (
                        tenant.fc,
                        fc_rows[t][(fc_cursor + k / 2) % FC_STREAM].clone(),
                    )
                };
                inputs.push((t, layer, input));
            }
        }
        fc_cursor += WINDOW / 2;
        let check = CHECK_ROUNDS.contains(&round);
        let traced = args.trace && round % 2 == 1;
        tracer.set_enabled(traced);
        tracer.begin("harness.round", round as u64);

        let mut pending: HashMap<RequestId, Pending> = HashMap::with_capacity(inputs.len());
        let mut timed_ns = 0u64;
        for (t, layer, input) in inputs {
            let tenant = &tenants[t];
            let exact = check.then(|| (layer == tenant.conv, input.clone()));
            let item = next_item;
            next_item += 1;
            let admitted = Instant::now();
            let result = tracer.span("serve.enqueue", item, || {
                server.enqueue(tenant.id, layer, input)
            });
            timed_ns += ns_since(admitted);
            match result {
                Ok(id) => {
                    pending.insert(
                        id,
                        Pending {
                            item,
                            admitted,
                            exact,
                            tenant: t,
                        },
                    );
                }
                Err(e) => report.check(false, || format!("round {round}: enqueue refused: {e}")),
            }
        }
        let t0 = Instant::now();
        let tick = tracer.span("serve.tick", round as u64, || server.tick());
        timed_ns += ns_since(t0);
        let t0 = Instant::now();
        let completions = tracer.span("serve.drain", round as u64, || server.drain_completions());
        let drained = Instant::now();
        timed_ns += ns_since(t0);

        report.check(tick.completed == pending.len(), || {
            format!(
                "round {round}: tick served {} of {}",
                tick.completed,
                pending.len()
            )
        });
        tick_completed += tick.completed;
        bank_bytes_max = bank_bytes_max.max(server.bank_bytes());
        let served = completions.len();
        for completion in completions {
            let Some(p) = pending.remove(&completion.id) else {
                report.check(false, || {
                    format!("{}: completed but not pending", completion.id)
                });
                continue;
            };
            let output = match completion.result {
                Ok(forward) => forward.output,
                Err(e) => {
                    report.check(false, || format!("{}: {e}", completion.id));
                    continue;
                }
            };
            report.check(output.data().iter().all(|v| v.is_finite()), || {
                format!("{}: non-finite output", completion.id)
            });
            if !traced {
                report.latencies_ns.push(ns_between(p.admitted, drained));
            }
            if let Some((is_conv, input)) = p.exact {
                let tenant = &tenants[p.tenant];
                let t0 = Instant::now();
                let exact = tracer.span("tensor.exact", p.item, || {
                    if is_conv {
                        conv2d_multi(&input, &tenant.kernels, 1, 1)
                    } else {
                        matmul(&input, &tenant.weights)
                    }
                });
                exact_ns.push(ns_since(t0));
                match exact
                    .map_err(|e| e.to_string())
                    .and_then(|exact| rel_error(&output, &exact))
                {
                    Ok(err) => rel_errors.push(err),
                    Err(e) => {
                        report.check(false, || format!("{}: exact check: {e}", completion.id))
                    }
                }
            }
        }
        for id in pending.keys() {
            report.check(false, || format!("{id}: admitted but never completed"));
        }
        report.round(traced, served, timed_ns);
        tracer.end();
        tracer.set_enabled(false);
        round += 1;
        if round == PREFIX_ROUNDS {
            let mut total = LayerStats::default();
            for tenant in &tenants {
                let session = server.session(tenant.id).expect("registered tenant");
                total.accumulate(&session.total_stats());
            }
            prefix_evictions = server.evictions();
            prefix_hit_rate = total.hits as f64 / total.total_vectors().max(1) as f64;
            report
                .per_layer
                .insert("serve.bank_bytes", bank_bytes_max as f64);
        }
    }

    report.setup_s = setup.median_s();
    let output_rel_error = rel_errors.iter().sum::<f64>() / rel_errors.len().max(1) as f64;
    report.check(!rel_errors.is_empty(), || {
        "no output was checked against exact compute".to_string()
    });
    report.quality.push(("output_rel_error", output_rel_error));
    if args.trace {
        report.record_self_times(tracer, report.traced.items);
        let p = &mut report.per_layer;
        let requests_per_tick = tick_completed as f64 / round as f64;
        let tick_us = tracer.mean_us("serve.tick");
        let tick_us_per_request = tick_us / requests_per_tick;
        let exact_us = exact_ns.iter().sum::<u64>() as f64 / exact_ns.len().max(1) as f64 / 1e3;
        p.insert("serve.enqueue_us", tracer.mean_us("serve.enqueue"));
        p.insert("serve.tick_us", tick_us);
        p.insert("serve.drain_us", tracer.mean_us("serve.drain"));
        p.insert("serve.tick_us_per_request", tick_us_per_request);
        p.insert("serve.requests_per_tick", requests_per_tick);
        p.insert("serve.evictions", prefix_evictions as f64);
        p.insert("core.hit_rate", prefix_hit_rate);
        p.insert("tensor.exact_us_per_request", exact_us);
        p.insert("core.reuse_over_exact", tick_us_per_request / exact_us);
        p.insert("serve.output_rel_error", output_rel_error);
    }
    report
}

/// One conv request: `CONV_CHANNELS` samples of one of the tenant's two
/// classes, stacked as channels.
fn conv_map(images: &ImageDataset, tenant: usize, rng: &mut Rng) -> Tensor {
    let class = tenant + TENANTS * rng.next_below(IMAGE_CLASSES / TENANTS);
    let mut data = Vec::with_capacity(CONV_CHANNELS * SIDE * SIDE);
    for _ in 0..CONV_CHANNELS {
        data.extend_from_slice(images.sample(class, rng).data());
    }
    Tensor::from_vec(data, &[CONV_CHANNELS, SIDE, SIDE]).expect("shape matches data")
}

/// Relative L2 error of `served` against `exact`.
fn rel_error(served: &Tensor, exact: &Tensor) -> Result<f64, String> {
    if served.shape() != exact.shape() {
        return Err(format!(
            "shape {:?}, exact {:?}",
            served.shape(),
            exact.shape()
        ));
    }
    let (mut diff, mut norm) = (0.0f64, 0.0f64);
    for (&s, &e) in served.data().iter().zip(exact.data()) {
        diff += f64::from(s - e).powi(2);
        norm += f64::from(e).powi(2);
    }
    Ok((diff / norm.max(f64::MIN_POSITIVE)).sqrt())
}
