//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is (name, start, end, parent, op id); the first dotted
//! component of its name is its layer. Stage timers a `SaveReport`
//! carries become child spans laid end to end from the parent's start,
//! in the order the pipeline runs them. Spans stay in memory and are
//! written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use disc_obs::Stages;

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its id.
    pub fn span(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Children for the detect, R-set build and save stages of one
    /// pipeline run, starting at `start`: `detect` names the layer the
    /// detect stage belongs to (the saver's in batch runs, the engine's
    /// when it includes δ_η upkeep).
    pub fn stages(
        &mut self,
        parent: usize,
        op: u64,
        start: Instant,
        stages: &Stages,
        detect: &'static str,
    ) {
        let mut at = start;
        for (name, d) in [
            (detect, stages.detect),
            ("saver.rset_build", stages.rset_build),
            ("saver.save", stages.save),
        ] {
            self.span(name, op, Some(parent), at, at + d);
            at += d;
        }
    }

    /// Self time per layer: each span's duration minus its children's.
    pub fn self_time(&self) -> BTreeMap<&'static str, Duration> {
        let mut child: Vec<Duration> = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut layers = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *layers.entry(layer).or_insert(Duration::ZERO) += (s.end - s.start).saturating_sub(c);
        }
        layers
    }

    /// Writes every span as one JSON line (times in µs since the tracer
    /// started).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_us":{:.3},"end_us":{:.3},"parent":{parent},"op":{}}}"#,
                s.name,
                us(s.start),
                us(s.end),
                s.op
            )?;
        }
        out.flush()
    }
}
