//! Online anomaly scoring against a healthy-run [`Baseline`].
//!
//! The scorer compares a live (or replayed) run's telemetry snapshot
//! to a baseline and emits findings under three stable codes,
//! mirroring the diagnostics registries of `tesla static-check`
//! (TESLA-S00x) and `tesla lint` (TESLA-L00x):
//!
//! * **TESLA-A001 — novel transition**: the run took an automaton
//!   edge the baseline never observed. The single strongest signal:
//!   the program exercised a protocol path "normal" never does.
//! * **TESLA-A002 — weight divergence**: the normalized
//!   transition-frequency vector of a class drifted from the
//!   baseline's, measured by L1 distance (with symmetric χ² reported
//!   alongside). Catches ratio shifts even when every edge was known.
//! * **TESLA-A003 — latency regression**: a hook kind's mean latency
//!   cleared a robust bar over the baseline profile
//!   (`max(factor·µ, µ+3σ, µ+floor)`).
//!
//! For flagged classes the scorer pulls the most recent matching
//! events out of the [`FlightRecorder`] into the finding — a
//! replayable evidence snippet in the recorder's JSONL shape, so "it
//! diverged" always arrives with "here is what it was doing".

use crate::telemetry::analysis::baseline::Baseline;
use crate::telemetry::export::{esc, events_jsonl, json_escape};
use crate::telemetry::metrics::MetricsSnapshot;
use crate::telemetry::recorder::{FlightRecorder, RecordedEvent};
use crate::telemetry::Welford;

/// Stable anomaly codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyCode {
    /// TESLA-A001: an edge never taken in the baseline was taken.
    NovelTransition,
    /// TESLA-A002: normalized transition weights diverged.
    WeightDivergence,
    /// TESLA-A003: hook latency regressed past the robust bar.
    LatencyRegression,
}

impl AnomalyCode {
    /// The stable diagnostic code, e.g. `TESLA-A001`.
    pub fn code(self) -> &'static str {
        match self {
            AnomalyCode::NovelTransition => "TESLA-A001",
            AnomalyCode::WeightDivergence => "TESLA-A002",
            AnomalyCode::LatencyRegression => "TESLA-A003",
        }
    }

    /// Short human label.
    pub fn label(self) -> &'static str {
        match self {
            AnomalyCode::NovelTransition => "novel transition",
            AnomalyCode::WeightDivergence => "weight divergence",
            AnomalyCode::LatencyRegression => "latency regression",
        }
    }
}

// The scorer's thresholds are deliberately conservative: a healthy
// trace re-scored against its own baseline must stay flag-free (it
// scores exactly 0), and small-sample noise must not page anyone.

/// L1 distance (×1000, range 0..=2000) above which a class is flagged
/// TESLA-A002.
pub const L1_THRESHOLD_MILLI: u64 = 250;

/// Latency-regression factor (×1000): the live mean must exceed
/// `factor · baseline_mean` (as well as the `+3σ` and `+floor` bars)
/// to flag TESLA-A003.
pub const LATENCY_FACTOR_MILLI: u64 = 2000;

/// Absolute latency floor (ns) a regression must clear — guards
/// against flagging a 40 ns hook that "doubled" to 80 ns.
pub const LATENCY_FLOOR_NS: u64 = 100_000;

/// Minimum latency samples (both sides) before TESLA-A003 is
/// considered.
pub const MIN_LATENCY_SAMPLES: u64 = 32;

/// Minimum live transitions in a class before it is scored.
pub const MIN_CLASS_EVENTS: u64 = 4;

/// Most recent flight-recorder events attached per finding.
pub const EVIDENCE_EVENTS: usize = 32;

/// One finding.
#[derive(Debug, Clone)]
pub struct Anomaly {
    /// Which check fired.
    pub code: AnomalyCode,
    /// Assertion name (A001/A002) or hook label (A003).
    pub subject: String,
    /// Class id for class-level findings.
    pub class: Option<u32>,
    /// Comparable magnitude ×1000: L1 distance for A002, novel-edge
    /// count for A001, live/baseline mean ratio for A003.
    pub score_milli: u64,
    /// Human-readable specifics.
    pub detail: String,
    /// Recent flight-recorder events for the flagged class, oldest
    /// first (empty when no recorder was attached).
    pub evidence: Vec<RecordedEvent>,
}

/// Per-class divergence scores, including unflagged classes — the
/// exported signal a dashboard watches *before* thresholds trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassScore {
    /// Class id in this run.
    pub class: u32,
    /// Assertion name.
    pub name: String,
    /// L1 distance ×1000 (0..=2000).
    pub l1_milli: u64,
    /// Symmetric χ² distance ×1000 (0..=2000).
    pub chi2_milli: u64,
    /// Edges taken live that the baseline never saw.
    pub novel_edges: u64,
}

/// Everything one scoring pass produced.
#[derive(Debug, Clone, Default)]
pub struct AnomalyReport {
    /// Findings, in class order then hook order.
    pub anomalies: Vec<Anomaly>,
    /// Divergence scores for every scored class.
    pub class_scores: Vec<ClassScore>,
    /// Classes compared against the baseline.
    pub classes_scored: usize,
    /// Live classes with transitions the baseline does not know (new
    /// assertions — reported, not flagged).
    pub classes_unmatched: usize,
}

impl AnomalyReport {
    /// True when nothing was flagged.
    pub fn is_clean(&self) -> bool {
        self.anomalies.is_empty()
    }
}

/// Score a run against a baseline.
///
/// Pass the run's [`FlightRecorder`] to attach evidence snippets to
/// class-level findings; without one, findings carry no events.
pub fn score(
    baseline: &Baseline,
    snap: &MetricsSnapshot,
    recorder: Option<&FlightRecorder>,
) -> AnomalyReport {
    let mut report = AnomalyReport::default();
    let recorded: Vec<RecordedEvent> = recorder.map(|r| r.snapshot()).unwrap_or_default();
    for c in &snap.classes {
        let live_total: u64 = c.transitions.iter().map(|t| t.count).sum();
        if live_total < MIN_CLASS_EVENTS {
            continue;
        }
        let Some(base) = baseline.class(&c.name) else {
            report.classes_unmatched += 1;
            continue;
        };
        report.classes_scored += 1;
        // Union of edges, live counts first.
        let mut novel: Vec<(u32, u32, u64)> = Vec::new();
        let mut l1 = 0.0f64;
        let mut chi2 = 0.0f64;
        for t in &c.transitions {
            let p = t.count as f64 / live_total as f64;
            let qn = base.edge(t.from_state, t.symbol);
            let q = qn as f64 / base.total.max(1) as f64;
            l1 += (p - q).abs();
            if p + q > 0.0 {
                chi2 += (p - q) * (p - q) / (p + q);
            }
            if qn == 0 && t.count > 0 && base.total > 0 {
                novel.push((t.from_state, t.symbol, t.count));
            }
        }
        for e in &base.edges {
            let taken_live = c
                .transitions
                .iter()
                .any(|t| t.from_state == e.from && t.symbol == e.sym);
            if !taken_live {
                let q = e.n as f64 / base.total.max(1) as f64;
                l1 += q;
                chi2 += q; // (0-q)²/(0+q) = q
            }
        }
        let l1_milli = to_milli(l1);
        let chi2_milli = to_milli(chi2);
        report.class_scores.push(ClassScore {
            class: c.class,
            name: c.name.clone(),
            l1_milli,
            chi2_milli,
            novel_edges: novel.len() as u64,
        });
        let evidence = |recorded: &[RecordedEvent]| -> Vec<RecordedEvent> {
            let matching: Vec<RecordedEvent> = recorded
                .iter()
                .filter(|e| e.class == c.class)
                .cloned()
                .collect();
            let skip = matching.len().saturating_sub(EVIDENCE_EVENTS);
            matching.into_iter().skip(skip).collect()
        };
        if !novel.is_empty() {
            let mut shown: Vec<String> = novel
                .iter()
                .take(4)
                .map(|(f, s, n)| format!("{f}-[{s}]-> ({n}×)"))
                .collect();
            if novel.len() > 4 {
                shown.push(format!("+{} more", novel.len() - 4));
            }
            report.anomalies.push(Anomaly {
                code: AnomalyCode::NovelTransition,
                subject: c.name.clone(),
                class: Some(c.class),
                score_milli: novel.len() as u64 * 1000,
                detail: format!(
                    "{} edge(s) never taken in baseline: {}",
                    novel.len(),
                    shown.join(", ")
                ),
                evidence: evidence(&recorded),
            });
        }
        if l1_milli > L1_THRESHOLD_MILLI {
            report.anomalies.push(Anomaly {
                code: AnomalyCode::WeightDivergence,
                subject: c.name.clone(),
                class: Some(c.class),
                score_milli: l1_milli,
                detail: format!(
                    "L1 divergence {} (chi2 {}) over {} live transitions vs baseline total {}",
                    fmt_milli(l1_milli),
                    fmt_milli(chi2_milli),
                    live_total,
                    base.total
                ),
                evidence: evidence(&recorded),
            });
        }
    }
    for h in &snap.hooks {
        let Some(base) = baseline.hook(&h.hook) else {
            continue;
        };
        if h.latency.count < MIN_LATENCY_SAMPLES || base.samples < MIN_LATENCY_SAMPLES {
            continue;
        }
        let live_mean = Welford::from_histogram(&h.latency).mean();
        let bar = (base.mean_ns as f64 * LATENCY_FACTOR_MILLI as f64 / 1000.0)
            .max(base.mean_ns as f64 + 3.0 * base.std_ns as f64)
            .max(base.mean_ns as f64 + LATENCY_FLOOR_NS as f64);
        if live_mean > bar {
            let ratio_milli = to_milli(live_mean / base.mean_ns.max(1) as f64).max(1);
            report.anomalies.push(Anomaly {
                code: AnomalyCode::LatencyRegression,
                subject: h.hook.clone(),
                class: None,
                score_milli: ratio_milli,
                detail: format!(
                    "mean latency {} ns vs baseline {} ns (std {} ns, bar {} ns)",
                    live_mean.round() as u64,
                    base.mean_ns,
                    base.std_ns,
                    bar.round() as u64
                ),
                evidence: Vec::new(),
            });
        }
    }
    report
}

fn to_milli(x: f64) -> u64 {
    if x.is_finite() && x > 0.0 {
        (x * 1000.0).round().min(u64::MAX as f64) as u64
    } else {
        0
    }
}

fn fmt_milli(m: u64) -> String {
    format!("{}.{:03}", m / 1000, m % 1000)
}

/// Render a report as human-readable text, evidence snippets
/// included (indented recorder-JSONL lines, replayable as-is).
pub fn render_text(report: &AnomalyReport) -> String {
    let mut out = String::new();
    for a in &report.anomalies {
        out.push_str(&format!(
            "{} {}: `{}` {}\n",
            a.code.code(),
            a.code.label(),
            a.subject,
            a.detail
        ));
        if !a.evidence.is_empty() {
            out.push_str(&format!(
                "  evidence: last {} recorded event(s) for class {}\n",
                a.evidence.len(),
                a.class.unwrap_or(0)
            ));
            for line in events_jsonl(&a.evidence).lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out.push_str(&format!(
        "anomaly summary: {} finding(s) over {} scored class(es), {} unmatched\n",
        report.anomalies.len(),
        report.classes_scored,
        report.classes_unmatched
    ));
    out
}

/// Prometheus exposition of anomaly scores: per-class divergence
/// gauges plus per-code finding counts.
pub fn prometheus(report: &AnomalyReport) -> String {
    let mut out = String::new();
    out.push_str("# HELP tesla_anomaly_class_l1_milli L1 transition-weight divergence vs baseline (x1000).\n");
    out.push_str("# TYPE tesla_anomaly_class_l1_milli gauge\n");
    for s in &report.class_scores {
        out.push_str(&format!(
            "tesla_anomaly_class_l1_milli{{class=\"{}\"}} {}\n",
            esc(&s.name),
            s.l1_milli
        ));
    }
    out.push_str("# HELP tesla_anomaly_class_chi2_milli Symmetric chi-squared divergence vs baseline (x1000).\n");
    out.push_str("# TYPE tesla_anomaly_class_chi2_milli gauge\n");
    for s in &report.class_scores {
        out.push_str(&format!(
            "tesla_anomaly_class_chi2_milli{{class=\"{}\"}} {}\n",
            esc(&s.name),
            s.chi2_milli
        ));
    }
    out.push_str(
        "# HELP tesla_anomaly_novel_edges Transitions taken that the baseline never saw.\n",
    );
    out.push_str("# TYPE tesla_anomaly_novel_edges gauge\n");
    for s in &report.class_scores {
        out.push_str(&format!(
            "tesla_anomaly_novel_edges{{class=\"{}\"}} {}\n",
            esc(&s.name),
            s.novel_edges
        ));
    }
    out.push_str("# HELP tesla_anomalies_total Findings by stable code.\n");
    out.push_str("# TYPE tesla_anomalies_total gauge\n");
    for code in [
        AnomalyCode::NovelTransition,
        AnomalyCode::WeightDivergence,
        AnomalyCode::LatencyRegression,
    ] {
        let n = report.anomalies.iter().filter(|a| a.code == code).count();
        out.push_str(&format!(
            "tesla_anomalies_total{{code=\"{}\"}} {n}\n",
            code.code()
        ));
    }
    out
}

/// JSON object of the full report (scores, findings, evidence).
pub fn json(report: &AnomalyReport) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"class_scores\": [\n");
    for (i, s) in report.class_scores.iter().enumerate() {
        let sep = if i + 1 == report.class_scores.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!(
            "    {{\"class\":{},\"name\":\"{}\",\"l1_milli\":{},\"chi2_milli\":{},\"novel_edges\":{}}}{sep}\n",
            s.class,
            json_escape(&s.name),
            s.l1_milli,
            s.chi2_milli,
            s.novel_edges
        ));
    }
    out.push_str("  ],\n  \"anomalies\": [\n");
    for (i, a) in report.anomalies.iter().enumerate() {
        let sep = if i + 1 == report.anomalies.len() {
            ""
        } else {
            ","
        };
        let class = a
            .class
            .map(|c| c.to_string())
            .unwrap_or_else(|| "null".into());
        out.push_str(&format!(
            "    {{\"code\":\"{}\",\"subject\":\"{}\",\"class\":{class},\"score_milli\":{},\"detail\":\"{}\",\"evidence_events\":{}}}{sep}\n",
            a.code.code(),
            json_escape(&a.subject),
            a.score_milli,
            json_escape(&a.detail),
            a.evidence.len()
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"classes_scored\": {},\n  \"classes_unmatched\": {}\n}}\n",
        report.classes_scored, report.classes_unmatched
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::metrics::{
        ClassSnapshot, HistogramSnapshot, HookSnapshot, TransitionCount,
    };

    fn class_snap(name: &str, transitions: Vec<TransitionCount>) -> ClassSnapshot {
        ClassSnapshot {
            class: 3,
            name: name.to_string(),
            news: 1,
            clones: 0,
            updates: transitions.iter().map(|t| t.count).sum(),
            accepted: 1,
            rejected: 0,
            overflows: 0,
            evictions: 0,
            shed: 0,
            live: 0,
            high_watermark: 1,
            transitions,
        }
    }

    fn snap_with(classes: Vec<ClassSnapshot>, hooks: Vec<HookSnapshot>) -> MetricsSnapshot {
        MetricsSnapshot {
            events_total: 0,
            violations: 0,
            sites_elided: 0,
            handler_panics: 0,
            faults_absorbed: 0,
            lock_poison_recoveries: 0,
            hooks,
            classes,
        }
    }

    fn t(from: u32, sym: u32, count: u64) -> TransitionCount {
        TransitionCount {
            from_state: from,
            symbol: sym,
            count,
        }
    }

    fn base_of(snapshot: &MetricsSnapshot) -> Baseline {
        Baseline::from_snapshot(snapshot)
    }

    #[test]
    fn identical_run_scores_zero_on_every_class() {
        let snap = snap_with(
            vec![class_snap("p", vec![t(0, 1, 40), t(1, 2, 60)])],
            vec![],
        );
        let base = base_of(&snap);
        let report = score(&base, &snap, None);
        assert!(report.is_clean(), "{:?}", report.anomalies);
        assert_eq!(report.classes_scored, 1);
        assert_eq!(report.class_scores[0].l1_milli, 0);
        assert_eq!(report.class_scores[0].chi2_milli, 0);
        assert_eq!(report.class_scores[0].novel_edges, 0);
    }

    #[test]
    fn novel_edge_raises_a001() {
        let healthy = snap_with(vec![class_snap("p", vec![t(0, 1, 100)])], vec![]);
        let base = base_of(&healthy);
        let live = snap_with(
            vec![class_snap("p", vec![t(0, 1, 100), t(2, 3, 1)])],
            vec![],
        );
        let report = score(&base, &live, None);
        assert!(report
            .anomalies
            .iter()
            .any(|a| a.code == AnomalyCode::NovelTransition));
        assert_eq!(report.class_scores[0].novel_edges, 1);
    }

    #[test]
    fn weight_shift_raises_a002_without_novel_edges() {
        let healthy = snap_with(
            vec![class_snap("p", vec![t(0, 1, 90), t(1, 2, 10)])],
            vec![],
        );
        let base = base_of(&healthy);
        // Same edges, flipped ratio: L1 = 2·0.8 = 1.6.
        let live = snap_with(
            vec![class_snap("p", vec![t(0, 1, 10), t(1, 2, 90)])],
            vec![],
        );
        let report = score(&base, &live, None);
        let a002: Vec<_> = report
            .anomalies
            .iter()
            .filter(|a| a.code == AnomalyCode::WeightDivergence)
            .collect();
        assert_eq!(a002.len(), 1);
        assert_eq!(a002[0].score_milli, 1600);
        assert!(!report
            .anomalies
            .iter()
            .any(|a| a.code == AnomalyCode::NovelTransition));
    }

    #[test]
    fn latency_regression_needs_samples_and_a_big_bar() {
        let hook = |mean_bucket: usize, n: u64| HookSnapshot {
            hook: "fn_entry".into(),
            calls: n,
            sample_period: 1,
            latency: HistogramSnapshot {
                buckets: {
                    let mut b = vec![0u64; 40];
                    b[mean_bucket] = n;
                    b
                },
                count: n,
                sum_ns: 0,
            },
        };
        // Baseline around 2^9-ish ns; live around 2^21-ish ns.
        let base = base_of(&snap_with(vec![], vec![hook(10, 100)]));
        let live = snap_with(vec![], vec![hook(22, 100)]);
        let report = score(&base, &live, None);
        assert!(report
            .anomalies
            .iter()
            .any(|a| a.code == AnomalyCode::LatencyRegression));
        // Too few samples: no flag.
        let sparse = snap_with(vec![], vec![hook(22, 4)]);
        let report = score(&base, &sparse, None);
        assert!(report.is_clean());
    }

    #[test]
    fn unmatched_and_tiny_classes_are_reported_not_flagged() {
        let base = base_of(&snap_with(vec![class_snap("p", vec![t(0, 1, 50)])], vec![]));
        let live = snap_with(
            vec![
                class_snap("unknown-assertion", vec![t(0, 1, 50)]),
                class_snap("p", vec![t(5, 5, 1)]), // below MIN_CLASS_EVENTS
            ],
            vec![],
        );
        let report = score(&base, &live, None);
        assert!(report.is_clean());
        assert_eq!(report.classes_unmatched, 1);
        assert_eq!(report.classes_scored, 0);
    }

    #[test]
    fn exports_are_well_formed() {
        let healthy = snap_with(
            vec![class_snap("p", vec![t(0, 1, 90), t(1, 2, 10)])],
            vec![],
        );
        let base = base_of(&healthy);
        let live = snap_with(
            vec![class_snap("p", vec![t(0, 1, 10), t(1, 2, 90)])],
            vec![],
        );
        let report = score(&base, &live, None);
        let prom = prometheus(&report);
        assert!(prom.contains("tesla_anomaly_class_l1_milli{class=\"p\"} 1600"));
        assert!(prom.contains("tesla_anomalies_total{code=\"TESLA-A002\"} 1"));
        let text = render_text(&report);
        assert!(text.contains("TESLA-A002 weight divergence"));
        let j = json(&report);
        assert!(j.contains("\"code\":\"TESLA-A002\""));
    }
}
