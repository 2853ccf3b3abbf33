"""Names, units and meaning of every metric the benchmark prints.

BENCHMARK.json lists the same metrics; test_bench.py keeps the two in
step.  ``moves`` records, before any optimisation is tried, which
end-to-end metric on which workload a layer metric should move.
"""

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),      # interpreter start, import, inputs, warm-up
    ("wall_s", "s", "lower"),       # the fixed work of one repetition
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p99_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# What one operation is, per workload.
OP_UNIT = {
    "certify": "one certified verdict: a threshold built, a table row, "
               "the order check to 30, or one compared pair",
    "oracle": "one oracle call: min_beta_for_period, exists_period_n_unique "
              "or primitive_necklaces",
    "queries": "one request of the closed loop",
}

# name, unit, moves.  A name ending in _s is the self time of the span
# of that name without the suffix; _calls is the number of such spans;
# anything else is a work count derived from public state.
PER_LAYER = [
    ("algebraic.isolate_s", "s", "certify wall_s (large periods), queries setup_s"),
    ("algebraic.isolate_calls", "count", "certify wall_s, queries setup_s"),
    ("algebraic.refine_s", "s", "certify wall_s"),
    ("algebraic.refine_bisections", "count", "certify wall_s"),
    ("algebraic.compare_s", "s", "certify wall_s"),
    ("algebraic.compare_calls", "count", "certify wall_s"),
    ("algebraic.compare_bisections", "count", "certify wall_s"),
    ("algebraic.endpoint_bits_max", "bits", "certify wall_s and peak_rss_mb"),
    ("thresholds.poly_s", "s", "certify wall_s"),
    ("thresholds.extremal_s", "s", "certify wall_s"),
    ("thresholds.reduced_poly_s", "s", "certify wall_s"),
    ("thresholds.below_kl_s", "s", "certify wall_s"),
    ("expansions.alg_orbit_s", "s", "certify wall_s"),
    ("expansions.alg_orbit_digits", "count", "certify wall_s"),
    ("expansions.unique_float_s", "s", "queries ops_per_s and op_p50_ms"),
    ("expansions.unique_float_calls", "count", "queries ops_per_s and op_p50_ms"),
    ("expansions.unique_alg_s", "s", "queries ops_per_s and op_p50_ms"),
    ("expansions.greedy_digits_s", "s", "queries ops_per_s and op_p50_ms"),
    ("expansions.undecided", "count", "queries undecided_ratio"),
    ("words.is_extremal_s", "s", "queries op_p50_ms"),
    ("words.lex_cmp_s", "s", "queries op_p50_ms"),
    ("words.parse_s", "s", "queries op_p50_ms"),
    ("trapezoid.encode_decode_s", "s", "queries op_p50_ms"),
    ("trapezoid.unimodal_cmp_s", "s", "queries op_p50_ms"),
    ("trapezoid.lr_cycles_s", "s", "queries op_p99_ms"),
    ("oracle.min_beta_s", "s", "oracle wall_s"),
    ("oracle.exists_s", "s", "oracle wall_s"),
    ("oracle.necklaces_s", "s", "oracle wall_s"),
    ("oracle.necklaces", "count", "oracle wall_s"),
    ("oracle.verify_ordering_s", "s", "certify wall_s"),
    ("cli.main_s", "s", "queries op_p99_ms and undecided_ratio"),
    ("cli.main_calls", "count", "queries op_p99_ms and undecided_ratio"),
    ("cli.exit2", "count", "queries undecided_ratio"),
    ("trace.overhead", "ratio", "none: traced wall_s over untraced wall_s"),
]


def layer_values(self_times: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced repetition (trace.overhead aside)."""
    out = {}
    for name, _, _ in PER_LAYER:
        if name == "trace.overhead":
            continue
        if name.endswith("_s"):
            out[name] = self_times.get(name[:-2], (0.0, 0))[0]
        elif name.endswith("_calls"):
            out[name] = self_times.get(name[:-6], (0.0, 0))[1]
        else:
            out[name] = counts.get(name, 0)
    return out
