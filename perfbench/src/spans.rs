//! Spans and counts recorded by the benchmark around each public call it
//! makes into a layer. They stay in memory until the run ends.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    thread: String,
    start_ns: u64,
    end_ns: u64,
    counts: Vec<(&'static str, u64)>,
}

/// A span log. A disabled log still times every call, so traced and
/// untraced reps run the same code apart from the recording itself.
pub struct Spans {
    origin: Instant,
    log: Option<Mutex<Vec<Span>>>,
}

/// A handle to an open span (`None` when recording is off).
#[derive(Clone, Copy)]
pub struct SpanId {
    id: Option<usize>,
    start: Instant,
}

impl Spans {
    pub fn new(record: bool) -> Self {
        Spans {
            origin: Instant::now(),
            log: record.then(|| Mutex::new(Vec::new())),
        }
    }

    pub fn open(&self, name: &str, parent: Option<SpanId>) -> SpanId {
        let start = Instant::now();
        let id = self.log.as_ref().map(|log| {
            let mut log = log.lock().expect("span log poisoned by a panicking thread");
            log.push(Span {
                name: name.to_string(),
                parent: parent.and_then(|p| p.id),
                thread: format!("{:?}", std::thread::current().id()),
                start_ns: self.ns_since_origin(start),
                end_ns: 0,
                counts: Vec::new(),
            });
            log.len() - 1
        });
        SpanId { id, start }
    }

    /// Close `span`, returning its duration in seconds.
    pub fn close(&self, span: SpanId) -> f64 {
        let end = Instant::now();
        if let (Some(log), Some(id)) = (&self.log, span.id) {
            let mut log = log.lock().expect("span log poisoned by a panicking thread");
            log[id].end_ns = self.ns_since_origin(end);
        }
        end.duration_since(span.start).as_secs_f64()
    }

    /// Run `f` inside a span; returns its result, duration and handle.
    pub fn time<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, f64, SpanId) {
        let span = self.open(name, parent);
        let r = f();
        let secs = self.close(span);
        (r, secs, span)
    }

    /// Attach a count measured at the boundary of `span`.
    pub fn count(&self, span: SpanId, name: &'static str, value: u64) {
        if let (Some(log), Some(id)) = (&self.log, span.id) {
            let mut log = log.lock().expect("span log poisoned by a panicking thread");
            log[id].counts.push((name, value));
        }
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Write the log as JSON: one object per span with its parent's index.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let Some(log) = &self.log else {
            return Ok(());
        };
        let log = log.lock().expect("span log poisoned by a panicking thread");
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        out.push_str(&format!("{{{header},\"spans\":[\n"));
        for (i, s) in log.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"thread\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"counts\":{{{}}}}}{}\n",
                s.name,
                s.thread,
                s.start_ns,
                s.end_ns,
                counts.join(","),
                if i + 1 < log.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        let mut f = fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}
