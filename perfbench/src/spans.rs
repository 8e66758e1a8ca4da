//! In-memory spans, written out when a traced run ends.
//!
//! A span is one row `request,span,parent,start_ns,end_ns`: every span of
//! one request or call carries that request's id, and `parent` names the
//! span it nests in (empty for the root). Workloads keep their spans in
//! plain vectors while they measure and hand them here afterwards, so no
//! file I/O happens inside a timed region.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::PathBuf;

/// Spans go under the benchmark's own directory of the checkout.
const DIR: &str = "perfbench/traces";

pub struct SpanFile {
    path: PathBuf,
    out: BufWriter<File>,
}

impl SpanFile {
    pub fn create(workload: &str) -> std::io::Result<SpanFile> {
        fs::create_dir_all(DIR)?;
        let path = PathBuf::from(format!("{DIR}/{workload}.spans.csv"));
        let mut out = BufWriter::new(File::create(&path)?);
        writeln!(out, "request,span,parent,start_ns,end_ns")?;
        Ok(SpanFile { path, out })
    }

    pub fn span(
        &mut self,
        request: u64,
        name: &str,
        parent: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> std::io::Result<()> {
        writeln!(self.out, "{request},{name},{parent},{start_ns},{end_ns}")
    }

    /// Flush and report where the spans went.
    pub fn finish(mut self, note: &str) -> std::io::Result<()> {
        self.out.flush()?;
        println!("spans: {} ({note})", self.path.display());
        Ok(())
    }
}
