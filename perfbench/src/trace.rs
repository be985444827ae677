//! Spans around the benchmark's own calls into each layer.
//!
//! A span records the layer, the request (module index) it served, its
//! parent span, start and end, and the allocations and work done inside
//! it. Spans stay in memory for the whole run and are written out when it
//! ends. With tracing off, [`Tracer::begin`] and [`Tracer::end`] cost one
//! branch each.

use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc::allocs;

/// A layer of the stack, as the benchmark calls into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The request itself: one module from its first layer call to erase.
    Module,
    Lex,
    Parse,
    Decode,
    Verify,
    Encode,
    Rewrite,
    Interp,
    Print,
    Erase,
}

/// The layers a request calls, in reporting order.
pub const LAYERS: [Layer; 9] = [
    Layer::Lex,
    Layer::Parse,
    Layer::Decode,
    Layer::Verify,
    Layer::Encode,
    Layer::Rewrite,
    Layer::Interp,
    Layer::Print,
    Layer::Erase,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Module => "module",
            Layer::Lex => "lexer",
            Layer::Parse => "parse",
            Layer::Decode => "decode",
            Layer::Verify => "verify",
            Layer::Encode => "encode",
            Layer::Rewrite => "rewrite",
            Layer::Interp => "interp",
            Layer::Print => "print",
            Layer::Erase => "erase",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Sentinel parent of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `work` is the layer's unit of work (tokens, ops,
/// bytes, applied rewrites, interpreter steps); `aux` is a second count
/// where a layer has one (visited ops, trap kind).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub request: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub work: u64,
    pub aux: u64,
}

/// The open half of a span: its start time and allocation count, or
/// nothing when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Mark(Option<(u64, u64)>);

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    request: u32,
    parent: u32,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            request: 0,
            parent: NO_PARENT,
        }
    }

    /// A recording tracer; times are nanoseconds since `epoch`.
    pub fn on(epoch: Instant) -> Tracer {
        Tracer {
            on: true,
            epoch,
            spans: Vec::new(),
            request: 0,
            parent: NO_PARENT,
        }
    }

    pub fn recording(&self) -> bool {
        self.on
    }

    pub fn set_recording(&mut self, on: bool) {
        self.on = on;
    }

    /// Reserves room for `more` spans, so that recording never allocates
    /// inside a measured pass.
    pub fn reserve(&mut self, more: usize) {
        self.spans.reserve(more);
    }

    /// Drops every span recorded after the first `len`.
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn begin(&self) -> Mark {
        if self.on {
            Mark(Some((self.now_ns(), allocs())))
        } else {
            Mark(None)
        }
    }

    #[inline]
    pub fn end(&mut self, mark: Mark, layer: Layer, work: u64, aux: u64) {
        if let Mark(Some((start_ns, start_allocs))) = mark {
            let allocs = allocs() - start_allocs;
            let end_ns = self.now_ns();
            self.spans.push(Span {
                layer,
                request: self.request,
                parent: self.parent,
                start_ns,
                end_ns,
                allocs,
                work,
                aux,
            });
        }
    }

    /// Opens the root span of request `request`; later spans are its
    /// children until [`Tracer::end_request`].
    pub fn begin_request(&mut self, request: u32) {
        self.request = request;
        if self.on {
            self.parent = self.spans.len() as u32;
            let now = self.now_ns();
            self.spans.push(Span {
                layer: Layer::Module,
                request,
                parent: NO_PARENT,
                start_ns: now,
                end_ns: now,
                allocs: allocs(),
                work: 0,
                aux: 0,
            });
        }
    }

    pub fn end_request(&mut self) {
        if self.on && self.parent != NO_PARENT {
            let now = self.now_ns();
            let root = &mut self.spans[self.parent as usize];
            root.end_ns = now;
            root.allocs = allocs() - root.allocs;
        }
        self.parent = NO_PARENT;
    }

    /// Tab-separated dump of every span, one per line.
    pub fn dump(&self) -> String {
        let mut out = String::from("layer\trequest\tparent\tstart_ns\tend_ns\tallocs\twork\taux\n");
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                s.request,
                s.start_ns,
                s.end_ns,
                s.allocs,
                s.work,
                s.aux
            );
        }
        out
    }
}

/// Per-layer sums over a run of spans (one traced pass).
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    busy_ns: [u64; 10],
    allocs: [u64; 10],
    work: [u64; 10],
    aux: [u64; 10],
    calls: [u64; 10],
    /// Interpreter runs by trap code (see `workload::trap_code`).
    traps: [u64; 5],
}

impl LayerTotals {
    pub fn from_spans(spans: &[Span]) -> LayerTotals {
        let mut t = LayerTotals::default();
        for s in spans {
            let i = s.layer.index();
            t.busy_ns[i] += s.end_ns - s.start_ns;
            t.allocs[i] += s.allocs;
            t.work[i] += s.work;
            t.calls[i] += 1;
            if s.layer == Layer::Interp {
                t.traps[s.aux as usize] += 1;
            } else {
                t.aux[i] += s.aux;
            }
        }
        t
    }

    pub fn busy_ns(&self, layer: Layer) -> u64 {
        self.busy_ns[layer.index()]
    }

    pub fn allocs(&self, layer: Layer) -> u64 {
        self.allocs[layer.index()]
    }

    pub fn work(&self, layer: Layer) -> u64 {
        self.work[layer.index()]
    }

    pub fn aux(&self, layer: Layer) -> u64 {
        self.aux[layer.index()]
    }

    /// Interpreter runs that ended with trap code `code`.
    pub fn traps(&self, code: usize) -> u64 {
        self.traps[code]
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// Time covered by layer spans (children of the request spans).
    pub fn covered_ns(&self) -> u64 {
        LAYERS.iter().map(|&l| self.busy_ns(l)).sum()
    }
}
