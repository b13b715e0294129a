//! [`ToJson`]/[`FromJson`] for the model types of the crates below
//! `alberta-core` (`alberta-uarch`, `alberta-profile`), which cannot
//! name the traits themselves. Types of this crate and the crates above
//! implement the traits beside their definitions.

use crate::json::{req, unknown_tag, DecodeError, Fields, FromJson, ToJson, Value};
use crate::json_codec;
use alberta_profile::{PathRow, PathTable, ProfilerFault, SampleConfig};
use alberta_stats::variation::TopDownRatios;
use alberta_uarch::{
    CacheConfig, DramConfig, MachineConfig, MemoryProfile, MpkiPoint, PredictorKind, TopDownReport,
};

json_codec!(CacheConfig {
    size_bytes,
    line_bytes,
    ways
});

json_codec!(DramConfig {
    banks,
    row_bytes,
    line_bytes
});

json_codec!(MachineConfig {
    issue_width,
    mispredict_penalty,
    l2_latency,
    l3_latency,
    memory_latency,
    tlb_penalty,
    icache_penalty,
    memory_parallelism,
    uops_per_unit,
    taken_branch_bubble,
    baseline_frontend,
    baseline_badspec,
    baseline_backend,
    icache,
    l1d,
    l2,
    l3,
    dtlb_entries,
    dram,
    fetch_probe_bytes
});

json_codec!(SampleConfig {
    branch_interval,
    mem_interval,
    call_interval,
    trace_capacity,
    work_budget,
    interval_work,
    fault
});

json_codec!(MpkiPoint { size_bytes, mpki });

json_codec!(MemoryProfile {
    l1_mpki,
    l2_mpki,
    l3_mpki,
    row_hit_rate,
    dram_bytes,
    footprint_lines,
    footprint_pages,
    mpki_curve
});

/// The predictor names a [`TopDownReport`] carries.
const PREDICTOR_NAMES: [&str; 4] = ["static-taken", "bimodal", "gshare", "tournament"];

/// Interns a predictor name back to the `&'static str` a
/// [`TopDownReport`] holds.
fn predictor_name(name: &str) -> Result<&'static str, DecodeError> {
    PREDICTOR_NAMES
        .into_iter()
        .find(|n| *n == name)
        .ok_or_else(|| DecodeError::new(format!("unknown predictor {name:?}")))
}

impl ToJson for PredictorKind {
    fn to_value(&self) -> Value {
        let (kind, bits) = match *self {
            PredictorKind::StaticTaken => ("static-taken", None),
            PredictorKind::Bimodal { bits } => ("bimodal", Some(bits)),
            PredictorKind::Gshare { bits } => ("gshare", Some(bits)),
            PredictorKind::Tournament { bits } => ("tournament", Some(bits)),
        };
        Fields::new()
            .put("kind", kind)
            .put_some("bits", &bits)
            .build()
    }
}

impl FromJson for PredictorKind {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        let bits = || req(value, "bits");
        match req::<String>(value, "kind")?.as_str() {
            "static-taken" => Ok(PredictorKind::StaticTaken),
            "bimodal" => Ok(PredictorKind::Bimodal { bits: bits()? }),
            "gshare" => Ok(PredictorKind::Gshare { bits: bits()? }),
            "tournament" => Ok(PredictorKind::Tournament { bits: bits()? }),
            other => Err(unknown_tag("kind", other)),
        }
    }
}

impl ToJson for ProfilerFault {
    fn to_value(&self) -> Value {
        let (kind, at) = match *self {
            ProfilerFault::PanicAtEvent(at) => ("panic_at_event", at),
            ProfilerFault::CorruptEvents { at } => ("corrupt_events", at),
        };
        Fields::new().put("kind", kind).put("at", &at).build()
    }
}

impl FromJson for ProfilerFault {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        let at = || req(value, "at");
        match req::<String>(value, "kind")?.as_str() {
            "panic_at_event" => Ok(ProfilerFault::PanicAtEvent(at()?)),
            "corrupt_events" => Ok(ProfilerFault::CorruptEvents { at: at()? }),
            other => Err(unknown_tag("kind", other)),
        }
    }
}

impl ToJson for TopDownReport {
    fn to_value(&self) -> Value {
        let r = &self.ratios;
        Fields::new()
            .put("front_end", &r.front_end)
            .put("back_end", &r.back_end)
            .put("bad_speculation", &r.bad_speculation)
            .put("retiring", &r.retiring)
            .put("cycles", &self.cycles)
            .put("retired_ops", &self.retired_ops)
            .put("ipc", &self.ipc)
            .put("mispredict_rate", &self.mispredict_rate)
            .put("mispredicts_per_kops", &self.mispredicts_per_kops)
            .put("l1d_miss_ratio", &self.l1d_miss_ratio)
            .put("l2_miss_ratio", &self.l2_miss_ratio)
            .put("l3_miss_ratio", &self.l3_miss_ratio)
            .put("dtlb_miss_ratio", &self.dtlb_miss_ratio)
            .put("icache_miss_ratio", &self.icache_miss_ratio)
            .put("predictor", self.predictor)
            .put("memory", &self.memory)
            .build()
    }
}

impl FromJson for TopDownReport {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        Ok(TopDownReport {
            ratios: TopDownRatios {
                front_end: req(value, "front_end")?,
                back_end: req(value, "back_end")?,
                bad_speculation: req(value, "bad_speculation")?,
                retiring: req(value, "retiring")?,
            },
            cycles: req(value, "cycles")?,
            retired_ops: req(value, "retired_ops")?,
            ipc: req(value, "ipc")?,
            mispredict_rate: req(value, "mispredict_rate")?,
            mispredicts_per_kops: req(value, "mispredicts_per_kops")?,
            l1d_miss_ratio: req(value, "l1d_miss_ratio")?,
            l2_miss_ratio: req(value, "l2_miss_ratio")?,
            l3_miss_ratio: req(value, "l3_miss_ratio")?,
            dtlb_miss_ratio: req(value, "dtlb_miss_ratio")?,
            icache_miss_ratio: req(value, "icache_miss_ratio")?,
            predictor: predictor_name(&req::<String>(value, "predictor")?)
                .map_err(|e| e.within("predictor"))?,
            memory: req(value, "memory")?,
        })
    }
}

/// A call-path row is the array `[path, calls, exclusive, inclusive]`.
impl ToJson for PathRow {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.path.to_value(),
            self.calls.to_value(),
            self.exclusive.to_value(),
            self.inclusive.to_value(),
        ])
    }
}

impl FromJson for PathRow {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        let Some([path, calls, exclusive, inclusive]) = value.as_array() else {
            return Err(DecodeError::new("expected a four-element path row"));
        };
        let at = |i: usize| move |e: DecodeError| e.within(&format!("[{i}]"));
        Ok(PathRow {
            path: String::from_value(path).map_err(at(0))?,
            calls: u64::from_value(calls).map_err(at(1))?,
            exclusive: u64::from_value(exclusive).map_err(at(2))?,
            inclusive: u64::from_value(inclusive).map_err(at(3))?,
        })
    }
}

impl ToJson for PathTable {
    fn to_value(&self) -> Value {
        self.rows().to_value()
    }
}

impl FromJson for PathTable {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        Ok(PathTable::from_rows(Vec::from_value(value)?))
    }
}
