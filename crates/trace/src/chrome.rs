//! Chrome-trace (`chrome://tracing` / Perfetto) JSON export.
//!
//! Produces the JSON Array-of-events format with `"X"` complete events on
//! the simulated clock. Chrome's `ts`/`dur` unit is microseconds; simulated
//! nanoseconds are emitted as exact decimal microseconds (`ns/1000` with up
//! to three fractional digits), so no precision is lost.
//!
//! Track layout per process (one process per device/node):
//! - `tid 0` — the serial lane (default stream);
//! - `tid 1+s` — device stream `s`;
//! - `tid 90` — spill tiers (kernel events whose label starts `spill.`);
//! - `tid 91` — exchange links (label starts `exchange.`);
//! - `tid 98` — lifecycle markers (retry / reschedule / fallback instants);
//! - `tid 99 + d` — operator spans at plan-tree depth `d` (one track per
//!   depth, so nested spans never share a track and per-track timestamps
//!   stay monotone).
//!
//! Display-lane routing is purely cosmetic: a spill write is still a real
//! ledger charge on its lane, and `sirius_hw::ledger::replay` uses the
//! event's [`Lane`], not its display track.
//!
//! [`validate_json`] reads an emitted document back through the workspace's
//! one JSON parser (`serde_json::from_str` into a [`Value`]) and checks the
//! event schema on the parsed tree.

use crate::{EventKind, Lane, TraceEvent};
use serde::Value;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Display thread id for spill-tier traffic.
pub const SPILL_TID: u32 = 90;
/// Display thread id for exchange-link traffic.
pub const EXCHANGE_TID: u32 = 91;
/// Display thread id for lifecycle markers.
pub const LIFECYCLE_TID: u32 = 98;
/// Base display thread id for operator spans: a span at plan-tree depth `d`
/// renders on `OP_TID + d`.
pub const OP_TID: u32 = 99;

fn lane_tid(lane: Lane) -> u32 {
    match lane {
        Lane::Serial => 0,
        Lane::Stream(s) => 1 + s,
    }
}

/// The display track an event renders on.
pub fn display_tid(ev: &TraceEvent) -> u32 {
    match ev.kind {
        EventKind::Span => OP_TID + ev.depth,
        EventKind::Instant => LIFECYCLE_TID,
        EventKind::Sync => lane_tid(Lane::Serial),
        EventKind::Kernel => {
            if ev.label.starts_with("spill.") {
                SPILL_TID
            } else if ev.label.starts_with("exchange.") {
                EXCHANGE_TID
            } else {
                lane_tid(ev.lane)
            }
        }
    }
}

fn tid_name(tid: u32) -> String {
    match tid {
        0 => "serial".to_string(),
        SPILL_TID => "spill tiers".to_string(),
        EXCHANGE_TID => "exchange links".to_string(),
        LIFECYCLE_TID => "lifecycle".to_string(),
        t if t >= OP_TID => format!("operators (depth {})", t - OP_TID),
        s => format!("stream {}", s - 1),
    }
}

/// Exact microseconds from nanoseconds: an integer part and up to three
/// fractional digits, no floating-point rounding.
fn us(ns: u64) -> String {
    let whole = ns / 1000;
    let frac = ns % 1000;
    if frac == 0 {
        format!("{whole}")
    } else {
        let mut s = format!("{whole}.{frac:03}");
        while s.ends_with('0') {
            s.pop();
        }
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn push_meta(out: &mut String, pid: u32, tid: u32, name: &str, what: &str, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let _ = write!(
        out,
        "\n{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{what}\",\
         \"args\":{{\"name\":\"{}\"}}}}",
        json_escape(name)
    );
}

/// Export one process's events. `process` names the device/node (e.g.
/// `"gh200"` or `"node 2"`).
pub fn export(process: &str, events: &[TraceEvent]) -> String {
    export_processes(&[(process.to_string(), events.to_vec())])
}

/// Export several processes (e.g. one per cluster node) into one trace.
pub fn export_processes(processes: &[(String, Vec<TraceEvent>)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for (pid, (name, events)) in processes.iter().enumerate() {
        let pid = pid as u32;
        push_meta(&mut out, pid, 0, name, "process_name", &mut first);
        let tids: BTreeSet<u32> = events.iter().map(display_tid).collect();
        for tid in &tids {
            push_meta(
                &mut out,
                pid,
                *tid,
                &tid_name(*tid),
                "thread_name",
                &mut first,
            );
        }
        for ev in events {
            if !first {
                out.push(',');
            }
            first = false;
            let tid = display_tid(ev);
            let (ph, dur) = match ev.kind {
                EventKind::Instant => ("i", None),
                _ => ("X", Some(ev.dur)),
            };
            let _ = write!(
                out,
                "\n{{\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},",
                us(ev.ts)
            );
            if let Some(d) = dur {
                let _ = write!(out, "\"dur\":{},", us(d));
            } else {
                out.push_str("\"s\":\"p\",");
            }
            let _ = write!(
                out,
                "\"cat\":\"{}\",\"name\":\"{}\",\"args\":{{\"seq\":{}",
                json_escape(ev.cat),
                json_escape(&ev.label),
                ev.seq
            );
            if ev.bytes > 0 {
                let _ = write!(out, ",\"bytes\":{}", ev.bytes);
            }
            if ev.rows > 0 {
                let _ = write!(out, ",\"rows\":{}", ev.rows);
            }
            if let Some(node) = ev.node {
                let _ = write!(out, ",\"node\":{node}");
            }
            out.push_str("}}");
        }
    }
    out.push_str("\n]}");
    out
}

/// A schema violation found by [`validate_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation(pub String);

/// Field `key` of a JSON object (`None` on anything else).
fn get<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    serde::field(v.as_object()?, key).ok()
}

/// Any JSON number, as Chrome reads `ts` / `dur` / ids.
fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::I64(n) => Some(*n as f64),
        Value::U64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

/// Validate an emitted Chrome-trace JSON document against the event schema:
/// it must parse, every `"X"` event needs a known `cat`, nonzero `dur`, and
/// per-`(pid, tid)` `ts` must be monotone in `args.seq` order. Returns the
/// number of non-metadata events checked.
pub fn validate_json(json: &str, known_cats: &[&str]) -> Result<usize, Violation> {
    let doc: Value = serde_json::from_str(json).map_err(|e| Violation(e.to_string()))?;
    let events = get(&doc, "traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| Violation("missing traceEvents array".into()))?;

    // (pid, tid, seq, ts, complete?) for every non-metadata event.
    let mut rows: Vec<(u64, u64, u64, f64, bool)> = Vec::new();
    let mut checked = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = get(ev, "ph")
            .and_then(Value::as_str)
            .ok_or_else(|| Violation(format!("event {i}: missing ph")))?;
        if ph == "M" {
            continue;
        }
        checked += 1;
        let pid = get(ev, "pid").and_then(as_f64).unwrap_or(-1.0);
        let tid = get(ev, "tid").and_then(as_f64).unwrap_or(-1.0);
        let ts = get(ev, "ts")
            .and_then(as_f64)
            .ok_or_else(|| Violation(format!("event {i}: missing ts")))?;
        let cat = get(ev, "cat")
            .and_then(Value::as_str)
            .ok_or_else(|| Violation(format!("event {i}: missing cat")))?;
        if !known_cats.contains(&cat) {
            return Err(Violation(format!("event {i}: unknown cat {cat:?}")));
        }
        if ph == "X" {
            let dur = get(ev, "dur")
                .and_then(as_f64)
                .ok_or_else(|| Violation(format!("event {i}: X event missing dur")))?;
            if dur <= 0.0 {
                return Err(Violation(format!("event {i}: zero dur")));
            }
        }
        let seq = get(ev, "args")
            .and_then(|a| get(a, "seq"))
            .and_then(as_f64)
            .ok_or_else(|| Violation(format!("event {i}: missing args.seq")))?
            as u64;
        rows.push((pid as u64, tid as u64, seq, ts, ph == "X"));
    }
    rows.sort_by_key(|(pid, tid, seq, ..)| (*pid, *tid, *seq));
    let mut prev: Option<(u64, u64, f64)> = None;
    for (pid, tid, seq, ts, _) in &rows {
        if let Some((ppid, ptid, pts)) = prev {
            if ppid == *pid && ptid == *tid && *ts < pts {
                return Err(Violation(format!(
                    "pid {pid} tid {tid}: ts {ts} regresses below {pts} at seq {seq}"
                )));
            }
        }
        prev = Some((*pid, *tid, *ts));
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, lane: Lane, cat: &'static str, label: &str, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            seq,
            kind: EventKind::Kernel,
            lane,
            cat,
            label: label.into(),
            ts,
            dur,
            bytes: 128,
            rows: 16,
            node: None,
            depth: 0,
        }
    }

    #[test]
    fn exact_microsecond_rendering() {
        assert_eq!(us(0), "0");
        assert_eq!(us(1000), "1");
        assert_eq!(us(1), "0.001");
        assert_eq!(us(1500), "1.5");
        assert_eq!(us(123_456_789), "123456.789");
    }

    #[test]
    fn export_roundtrips_through_the_validator() {
        let events = vec![
            ev(0, Lane::Serial, "other", "dispatch", 0, 100),
            ev(1, Lane::Stream(0), "filter", "filter.apply", 100, 500),
            ev(2, Lane::Stream(1), "filter", "filter.apply", 100, 400),
            ev(3, Lane::Serial, "exchange", "spill.pinned.write", 600, 50),
            ev(4, Lane::Serial, "exchange", "exchange.shuffle", 650, 70),
            TraceEvent {
                seq: 5,
                kind: EventKind::Instant,
                lane: Lane::Serial,
                cat: "lifecycle",
                label: "retry".into(),
                ts: 700,
                dur: 0,
                bytes: 0,
                rows: 0,
                node: None,
                depth: 0,
            },
        ];
        let cats = ["other", "filter", "exchange", "lifecycle"];
        let json = export("gh200", &events);
        let checked = validate_json(&json, &cats).unwrap();
        assert_eq!(checked, events.len());
        // Display routing: spill/exchange kernels land on their own lanes.
        assert_eq!(display_tid(&events[3]), SPILL_TID);
        assert_eq!(display_tid(&events[4]), EXCHANGE_TID);
        assert_eq!(display_tid(&events[1]), 1);
    }

    #[test]
    fn validator_rejects_unknown_cat_zero_dur_and_ts_regression() {
        let check =
            |events: &[TraceEvent], cats: &[&str]| validate_json(&export("p", events), cats);
        let good = [ev(0, Lane::Serial, "filter", "k", 10, 5)];
        assert_eq!(check(&good, &["filter"]), Ok(1));
        assert!(check(&good, &["join"]).is_err());

        let zero = [ev(0, Lane::Serial, "filter", "k", 10, 0)];
        assert!(check(&zero, &["filter"]).is_err());

        let regress = [
            ev(0, Lane::Serial, "filter", "k", 10, 5),
            ev(1, Lane::Serial, "filter", "k", 4, 5),
        ];
        assert!(check(&regress, &["filter"]).is_err());
        // Different tracks may interleave timestamps freely.
        let cross = [
            ev(0, Lane::Stream(0), "filter", "k", 10, 5),
            ev(1, Lane::Stream(1), "filter", "k", 4, 5),
        ];
        assert_eq!(check(&cross, &["filter"]), Ok(2));
    }

    #[test]
    fn json_validator_rejects_corrupt_documents() {
        assert!(validate_json("{", &[]).is_err());
        assert!(validate_json("{\"traceEvents\":3}", &[]).is_err());
        let doc = "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":1,\
                   \"cat\":\"filter\",\"name\":\"k\",\"args\":{\"seq\":0}}]}";
        // Missing dur on an X event.
        assert!(validate_json(doc, &["filter"]).is_err());
    }

    #[test]
    fn multi_process_export_keeps_pids_separate() {
        let a = vec![ev(0, Lane::Serial, "join", "probe", 0, 10)];
        let b = vec![ev(0, Lane::Serial, "join", "probe", 0, 10)];
        let json = export_processes(&[("node 0".into(), a), ("node 1".into(), b)]);
        assert_eq!(validate_json(&json, &["join"]).unwrap(), 2);
        assert!(json.contains("node 0"));
        assert!(json.contains("node 1"));
    }
}
