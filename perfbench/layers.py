"""Which equibox functions the traced run wraps, and the per-layer metrics.

README.md maps each layer to the end-to-end metric and workload it should
move.
"""

from tracing import Tracer


def instrument(modules):
    """Patch every traced function; returns the Tracer (call .restore())."""
    gf2poly, dickson, certifier, repdecomp, measures, solver = modules
    t = Tracer()

    def mul_before(a, b):
        t.counts["gf2poly.term_pairs"] += len(a) * len(b)

    def mul_after(p):
        t.note_max("gf2poly.max_terms", len(p))

    def criterion_after(p):
        t.note_max("certifier.criterion_terms_max", len(p))
        # criterion polynomials are homogeneous: one term gives the degree
        some_key = next(iter(p._keys))
        t.note_max("certifier.criterion_degree_max",
                   sum(gf2poly.unpack_key(some_key, p.nvars)))

    def spec_after(spec):
        t.counts["repdecomp.boxes"] += spec.box_count

    t.wrap([(gf2poly.PolyGF2, "__mul__")], "gf2poly.mul", mul_before, mul_after)
    t.wrap([(dickson, "dickson_product"), (certifier, "dickson_product")],
           "dickson.product")
    t.wrap([(certifier, "criterion_polynomial")], "certifier.criterion",
           after=criterion_after)
    t.wrap([(certifier, "min_dimension")], "certifier.min_dimension")
    t.wrap([(certifier, "certify")], "certifier.certify")
    t.wrap([(repdecomp, "build_test_representation")], "repdecomp.build",
           after=spec_after)
    t.wrap([(repdecomp, "character_multiplicities")], "repdecomp.multiplicities")
    t.wrap([(repdecomp, "index_polynomial")], "repdecomp.index_poly")
    t.wrap([(measures, "direction_quantiles")], "measures.quantiles")
    t.wrap([(measures.ProjectedGridCDF, "__init__")], "measures.grid_cdf")
    t.count_calls(measures.ProjectedGridCDF, "value", "measures.grid_cdf_value_calls")
    t.wrap([(measures, "box_mass_tensor"), (solver, "box_mass_tensor")],
           "measures.box_tensor")
    t.wrap([(solver, "solve_equipartition")], "solver.solve")
    t.wrap([(solver, "test_map")], "solver.test_map")
    t.wrap([(solver, "minimize")], "solver.minimize")
    t.wrap([(solver, "_angle_grid_starts")], "solver.angle_grid")
    t.wrap([(solver, "verify_configuration")], "solver.verify")
    return t


def _restart_evals(t):
    """test_map evaluations under each minimize span, in order."""
    restarts = [s[0] for s in t.spans if s[2] == "solver.minimize"]
    under = {sid: 0 for sid in restarts}
    for s in t.spans:
        if s[2] == "solver.test_map" and s[1] in under:
            under[s[1]] += 1
    return [under[sid] for sid in restarts]


def layer_metrics(t, converged):
    """Per-layer metrics from one traced pass, keyed by metric name."""
    evals = t.calls("solver.test_map")
    per_restart = _restart_evals(t)
    accepted = per_restart[-1] if per_restart and converged else 0
    test_map_s = t.total("solver.test_map")
    lookups = t.counts["certifier.cache_hits"] + t.counts["certifier.cache_misses"]
    solve_certify = t.child_time("solver.solve", "certifier.certify")
    return {
        "gf2poly.mul_calls": t.calls("gf2poly.mul"),
        "gf2poly.term_pairs": t.counts["gf2poly.term_pairs"],
        "gf2poly.mul_s": t.total("gf2poly.mul"),
        "gf2poly.max_terms": t.maxima.get("gf2poly.max_terms", 0),
        "dickson.product_calls": t.calls("dickson.product"),
        "dickson.product_s": t.total("dickson.product"),
        "certifier.criterion_calls": t.calls("certifier.criterion"),
        "certifier.criterion_s": t.total("certifier.criterion"),
        "certifier.min_dimension_s": t.total("certifier.min_dimension"),
        "certifier.cache_hit_ratio":
            t.counts["certifier.cache_hits"] / lookups if lookups else 0.0,
        "certifier.cache_lookups": lookups,
        "certifier.criterion_terms_max": t.maxima.get("certifier.criterion_terms_max", 0),
        "certifier.criterion_degree_max": t.maxima.get("certifier.criterion_degree_max", 0),
        "repdecomp.build_s": t.total("repdecomp.build"),
        "repdecomp.multiplicities_s": t.total("repdecomp.multiplicities"),
        "repdecomp.index_poly_s": t.total("repdecomp.index_poly"),
        "repdecomp.boxes": t.counts["repdecomp.boxes"],
        "measures.quantile_calls": t.calls("measures.quantiles"),
        "measures.quantiles_s": t.total("measures.quantiles"),
        "measures.box_tensor_calls": t.calls("measures.box_tensor"),
        "measures.box_tensor_s": t.total("measures.box_tensor"),
        "measures.grid_cdf_builds": t.calls("measures.grid_cdf"),
        "measures.grid_cdf_s": t.total("measures.grid_cdf"),
        "measures.grid_cdf_value_calls": t.counts["measures.grid_cdf_value_calls"],
        "solver.evals": evals,
        "solver.restarts": len(per_restart),
        "solver.useful_eval_ratio": accepted / evals if evals else 0.0,
        "solver.test_map_s": test_map_s,
        "solver.eval_ms": 1e3 * test_map_s / evals if evals else 0.0,
        "solver.optimizer_self_s":
            t.total("solver.minimize") - t.child_time("solver.minimize", "solver.test_map"),
        "solver.seed_s": solve_certify + t.total("solver.angle_grid"),
        "solver.verify_s": t.total("solver.verify"),
    }


# counts that must repeat exactly across runs of the same code and inputs
DETERMINISTIC = ("solver.evals", "solver.restarts", "gf2poly.mul_calls",
                 "gf2poly.term_pairs", "certifier.criterion_terms_max")

# unit of every per-layer metric a traced run prints
PER_LAYER = {
    "gf2poly.mul_calls": "count",
    "gf2poly.term_pairs": "count",
    "gf2poly.mul_s": "s",
    "gf2poly.max_terms": "count",
    "dickson.product_calls": "count",
    "dickson.product_s": "s",
    "certifier.criterion_calls": "count",
    "certifier.criterion_s": "s",
    "certifier.min_dimension_s": "s",
    "certifier.cache_hit_ratio": "ratio",
    "certifier.cache_lookups": "count",
    "certifier.criterion_terms_max": "count",
    "certifier.criterion_degree_max": "count",
    "repdecomp.build_s": "s",
    "repdecomp.multiplicities_s": "s",
    "repdecomp.index_poly_s": "s",
    "repdecomp.boxes": "count",
    "measures.quantile_calls": "count",
    "measures.quantiles_s": "s",
    "measures.box_tensor_calls": "count",
    "measures.box_tensor_s": "s",
    "measures.grid_cdf_builds": "count",
    "measures.grid_cdf_s": "s",
    "measures.grid_cdf_value_calls": "count",
    "solver.evals": "count",
    "solver.restarts": "count",
    "solver.useful_eval_ratio": "ratio",
    "solver.test_map_s": "s",
    "solver.eval_ms": "ms",
    "solver.optimizer_self_s": "s",
    "solver.seed_s": "s",
    "solver.verify_s": "s",
    "cli.python_start_s": "s",
    "cli.import_s": "s",
    "cli.command_s": "s",
    "stage.tables_s": "s",
    "stage.deep_s": "s",
    "stage.crosscheck_s": "s",
    "stage.probe_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.traced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}
