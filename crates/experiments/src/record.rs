//! The `results/BENCH_*.json` recorder shared by the benchmark binaries.
//!
//! Every recording has the same frame: a header (`bench`, `command`,
//! `date`, and `host_threads` where the binary places it), the binary's
//! own fields, then `peak_rss` and a `notes` array. `--out PATH` writes
//! the document to a file; without it, it goes to stdout. [`Record`]
//! keeps the top-level keys in the order the binary adds them, so each
//! file's layout is fixed by its binary alone.

use crate::{rss, Args};
use std::fmt::Display;
use std::time::{Instant, SystemTime};

/// Mean wall-clock seconds of `iters` runs of `f` (each result is
/// black-boxed so the optimiser cannot elide the work).
pub fn time_mean<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Hardware threads the host exposes; every recording states it because
/// parallel rows mean nothing without it.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The `YYYY-MM-DD` civil date `days` after 1970-01-01, in the proleptic
/// Gregorian calendar (H. Hinnant's `civil_from_days`: count in 400-year
/// eras of years that start on 1 March, so the leap day ends a year).
fn civil_date(days: u64) -> String {
    let z = days + 719_468; // days since 0000-03-01
    let era = z / 146_097;
    let doe = z % 146_097; // day of era, [0, 146096]
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // day of year from 1 March
    let mp = (5 * doy + 2) / 153; // month from March, [0, 11]
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = era * 400 + yoe + u64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// Today's UTC date as `YYYY-MM-DD`.
fn today_utc() -> String {
    let secs = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    civil_date(secs / 86_400)
}

/// `s` as a quoted, escaped JSON string.
fn quote(s: &str) -> String {
    serde_json::to_string(s).expect("a string always serialises")
}

/// A BENCH document under construction.
pub struct Record {
    bench: String,
    /// Top-level `(key, rendered JSON value)` pairs, in output order.
    fields: Vec<(String, String)>,
}

impl Record {
    /// Opens the document with `bench`, `command` and `date` (`--date`,
    /// default today's UTC date).
    pub fn new(bench: &str, command: &str, args: &Args) -> Self {
        let mut record = Self {
            bench: bench.to_string(),
            fields: Vec::new(),
        };
        let date = args.get("date").map_or_else(today_utc, str::to_string);
        record
            .text("bench", bench)
            .text("command", command)
            .text("date", &date);
        record
    }

    /// Adds `key` with an already-rendered JSON value.
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds `key` with a string value.
    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        self.field(key, quote(value))
    }

    /// Adds `host_threads`.
    pub fn host_threads(&mut self) -> &mut Self {
        self.field("host_threads", host_threads())
    }

    /// Adds `key` as an array of already-rendered items, one per line.
    pub fn list(&mut self, key: &str, items: impl IntoIterator<Item = String>) -> &mut Self {
        let items: Vec<String> = items.into_iter().collect();
        self.field(key, block('[', ']', &items))
    }

    /// Adds `key` as an object of `"name": value` entries, one per line;
    /// values are already-rendered JSON.
    pub fn map<K: AsRef<str>, V: Display>(
        &mut self,
        key: &str,
        entries: impl IntoIterator<Item = (K, V)>,
    ) -> &mut Self {
        let entries: Vec<String> = entries
            .into_iter()
            .map(|(k, v)| format!("{}: {v}", quote(k.as_ref())))
            .collect();
        self.field(key, block('{', '}', &entries))
    }

    /// Adds the `results` array: one `{ "benchmark": name, unit: value }`
    /// row per entry (`unit` is `mean_s` for timings).
    pub fn results(&mut self, unit: &str, rows: &[(String, f64)]) -> &mut Self {
        self.list(
            "results",
            rows.iter().map(|(name, value)| {
                format!(
                    "{{ \"benchmark\": {}, \"{unit}\": {value:.9} }}",
                    quote(name)
                )
            }),
        )
    }

    /// The finished document: every field, then `peak_rss` (read now) and
    /// `notes`.
    fn render(&self, notes: &[String]) -> String {
        let peak = rss::peak_rss_bytes()
            .map(|b| format!("{:.1} MiB", b as f64 / (1 << 20) as f64))
            .unwrap_or_else(|| "n/a".into());
        let notes: Vec<String> = notes.iter().map(|n| quote(n)).collect();
        let tail = [
            ("peak_rss".to_string(), quote(&peak)),
            ("notes".to_string(), block('[', ']', &notes)),
        ];
        let body: Vec<String> = self
            .fields
            .iter()
            .chain(&tail)
            .map(|(key, value)| format!("  {}: {value}", quote(key)))
            .collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }

    /// Renders the document and writes it to `--out`, or to stdout.
    pub fn emit(&self, notes: &[String], args: &Args) {
        let json = self.render(notes);
        match args.get("out") {
            Some(out) => {
                std::fs::write(out, &json).expect("write bench json");
                eprintln!("[{}] wrote {out}", self.bench);
            }
            None => print!("{json}"),
        }
    }
}

/// A multi-line JSON array or object body at the recorder's indentation.
fn block(open: char, close: char, items: &[String]) -> String {
    if items.is_empty() {
        return format!("{open}{close}");
    }
    format!("{open}\n    {}\n  {close}", items.join(",\n    "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_keeps_insertion_order_and_parses() {
        let args = Args::parse(["--date".to_string(), "2026-01-02".to_string()], &["date"]);
        let mut record = Record::new("demo", "cargo run --bin demo", &args);
        record
            .host_threads()
            .field("iters", 3)
            .results("mean_s", &[("a/b".into(), 0.5), ("c".into(), 2.0)])
            .map("speedups", [("x", "1.50")])
            .map("empty", Vec::<(String, f64)>::new())
            .list("pairs", ["{ \"n\": 1 }".to_string()]);
        let json = record.render(&["say \"why\"".to_string()]);
        let v = serde_json::from_str(&json).expect("valid json");
        assert_eq!(v["bench"].as_str(), Some("demo"));
        assert_eq!(v["date"].as_str(), Some("2026-01-02"));
        assert_eq!(v["results"][1]["mean_s"].as_f64(), Some(2.0));
        assert_eq!(v["speedups"]["x"].as_f64(), Some(1.5));
        assert_eq!(v["pairs"][0]["n"].as_f64(), Some(1.0));
        assert_eq!(v["notes"][0].as_str(), Some("say \"why\""));
        let keys: Vec<&str> = json
            .lines()
            .filter_map(|l| l.strip_prefix("  \""))
            .map(|l| &l[..l.find('"').unwrap()])
            .collect();
        assert_eq!(
            keys,
            [
                "bench",
                "command",
                "date",
                "host_threads",
                "iters",
                "results",
                "speedups",
                "empty",
                "pairs",
                "peak_rss",
                "notes"
            ]
        );
    }

    #[test]
    fn civil_dates_cross_leap_days_and_eras() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(11_016), "2000-02-29");
        assert_eq!(civil_date(11_017), "2000-03-01");
        assert_eq!(civil_date(20_746), "2026-10-20");
    }

    #[test]
    fn every_iteration_runs_once() {
        let mut runs = 0;
        let mean = time_mean(4, || runs += 1);
        assert_eq!(runs, 4);
        assert!(mean >= 0.0);
    }
}
