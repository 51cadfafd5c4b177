//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions: a name (`<layer>.<call>`), start and end
//! offsets from the recorder's epoch, the enclosing span, and the id of
//! the item (training step, request or model run) the span works for.
//! Nothing is written while the workload runs; [`Tracer::write_tsv`]
//! dumps the spans once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub item: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; every call is a no-op when disabled, so
/// the same workload code serves the untraced and the traced items.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled tracing inside an open span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, item: u64) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            item,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let index = self.open.pop().expect("end() without a matching begin()");
        self.spans[index].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, item: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, item);
        let result = f();
        self.end();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean duration of the spans called `name`, in microseconds (0 when
    /// none was recorded).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (count, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.duration_ns()));
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64 / 1e3
        }
    }

    /// Self time summed per layer (the name's part before the first dot),
    /// in nanoseconds: each span's duration minus the time its direct
    /// children cover.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            *by_layer.entry(layer).or_insert(0) += span.duration_ns() - children;
        }
        by_layer
    }

    /// Writes every span as one TSV row: index, name, start, end, parent
    /// index (`-` for a root) and item id.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tname\tstart_ns\tend_ns\tparent\titem")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.item
            )?;
        }
        out.flush()
    }
}
