//! The metric schema and the result line.
//!
//! Every workload prints the same metric set: all end-to-end metrics in
//! an untraced run, all per-layer metrics in a traced one. A per-layer
//! metric whose layer a workload does not run reads 0.

/// End-to-end metrics, `(name, unit)`, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("node_rounds_per_s", "1/s"),
    ("delivery_rounds_p50", "rounds"),
    ("delivery_rounds_p99", "rounds"),
    ("delivery_ms_p50", "ms"),
    ("delivery_ms_p99", "ms"),
    ("max_ok_rate", "1/s"),
    ("cpu_us_per_delivery", "us"),
    ("delivery_fail_ratio", "ratio"),
    ("wire_bytes_per_delivery", "B"),
    ("bytes_per_node", "B"),
];

/// Per-layer metrics, `(name, unit)`, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.engine.step_ms", "ms"),
    ("sim.engine.self_ms", "ms"),
    ("sim.engine.parallelism", "ratio"),
    ("sim.engine.publish_us", "us"),
    ("sim.engine.build_s", "s"),
    ("sim.engine.copies_offered", "1/round"),
    ("sim.engine.handled_per_offered", "ratio"),
    ("sim.network.dropped", "1/round"),
    ("core.tick.calls", "count"),
    ("core.tick.ns", "ns"),
    ("core.handle.gossip.calls", "count"),
    ("core.handle.gossip.ns", "ns"),
    ("core.handle.pull.calls", "count"),
    ("core.handle.pull.ns", "ns"),
    ("core.handle.subscribe.calls", "count"),
    ("core.handle.subscribe.ns", "ns"),
    ("core.gossip.events", "entries"),
    ("core.gossip.digest_ids", "entries"),
    ("core.gossip.subs", "entries"),
    ("core.gossip.unsubs", "entries"),
    ("core.redundancy", "ratio"),
    ("core.ids_purged", "count"),
    ("core.events_truncated", "count"),
    ("core.dup_deliveries", "count"),
    ("core.pull.requests", "count"),
    ("core.pull.served", "count"),
    ("core.pull.misses", "count"),
    ("core.pull.hit_ratio", "ratio"),
    ("core.subs_added", "count"),
    ("core.unsubs_applied", "count"),
    ("core.join_requests", "count"),
    ("net.wire.meter_ns", "ns"),
    ("net.wire.bytes_per_msg", "B"),
    ("net.wire.encode_ns", "ns"),
    ("net.wire.decode_ns", "ns"),
    ("net.cluster.step_us", "us"),
    ("net.cluster.cpu_util", "ratio"),
    ("net.cluster.runtime_cpu_us_per_delivery", "us"),
    ("net.cluster.bytes_per_datagram", "B"),
    ("net.cluster.msgs_per_datagram", "count"),
    ("net.cluster.local_share", "ratio"),
    ("net.cluster.tick_ratio", "ratio"),
    ("net.udp.rcvbuf_errors", "ratio"),
    ("bench.gen_late_ms", "ms"),
    ("bench.trace_overhead", "%"),
];

/// Measured values by name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// Orders the values by `schema`, reading 0 for metrics this
    /// workload does not produce. Errors on a name or unit outside the
    /// schema, or on a value that is not finite.
    fn complete(&self, schema: &[(&str, &str)]) -> Result<Vec<(String, f64, String)>, String> {
        for (name, value, unit) in &self.0 {
            if !schema.iter().any(|(n, u)| n == name && u == unit) {
                return Err(format!("metric {name} [{unit}] is not in the schema"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
        }
        Ok(schema
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .0
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map_or(0.0, |m| m.1);
                (name.to_string(), value, unit.to_string())
            })
            .collect())
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Expected deliveries (event × receiver).
    pub attempted: u64,
    /// Deliveries the output checks reject: ids never published, wrong
    /// payloads, sightings no protocol delivery accounts for. Missed and
    /// repeated deliveries are the protocol's measured reliability
    /// (`delivery_fail_ratio`), not wrong outputs: on real sockets they
    /// vary from run to run.
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// Prints one human-readable line per metric, then the result object
    /// as the last line of standard output.
    pub fn print(&self, traced: bool) -> Result<(), String> {
        let schema = if traced { PER_LAYER } else { END_TO_END };
        let rows = self.metrics.complete(schema)?;
        let mut json = String::new();
        for (i, (name, value, unit)) in rows.iter().enumerate() {
            println!("{name:<42} {value:>16.6} {unit}");
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all);
    }

    /// `(name, unit)` of every metric object in `BENCHMARK.json`'s
    /// `key` list, in file order.
    fn declared(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let list = &json[start
            ..json[start..]
                .find(']')
                .map(|e| start + e)
                .expect("list ends")];
        list.split("{\"name\": \"")
            .skip(1)
            .map(|item| {
                let name = item.split('"').next().expect("name");
                let unit = item
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn schema_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let own = |s: &[(&str, &str)]| -> Vec<(String, String)> {
            s.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(json, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(json, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn complete_fills_absent_metrics_and_rejects_strangers() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.5, "s");
        let rows = m.complete(END_TO_END).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        assert_eq!(rows[0].1, 0.5);
        assert_eq!(rows[1].1, 0.0);
        m.push("mystery", 1.0, "s");
        assert!(m.complete(END_TO_END).is_err());
        let mut nan = Metrics::default();
        nan.push("setup_s", f64::NAN, "s");
        assert!(nan.complete(END_TO_END).is_err());
    }
}
