"""Which boundaries the traced run wraps, and the per-layer metrics it reports.

Every wrapper sits at a name that callers look up, so nothing under
``src/`` changes.  Hot paths (``Polynomial.__mul__``, ``Jet.__mul__``,
``WarpProfile.tau_of_logr``, ``invert_monotone``, the chart's
``components``) are only counted; the rest record spans.  ``jets`` and
``rational`` therefore have counts but no self time of their own: their
time shows up in the calling ``charts`` and ``odes`` spans.
"""

from __future__ import annotations

import statistics

SPAN_LAYERS = ("cli", "odes", "builder", "numutil", "charts", "verify")

ODES_FNS = ("closed_form_certificate", "lemma_quantities", "first_order_reduction",
            "system_12", "solsys_system", "appendix_system")
CHECK_FNS = ("check_positive_definite", "check_kahler", "check_killing", "check_skr",
             "check_ricci_hessian", "check_quasi_einstein",
             "check_warped_einstein_constant", "check_conformal_formulas",
             "check_profile_identities")
REFUSALS = ("obstruction", "no_interval", "other")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [("rational.poly_mul_calls", "calls/cell", "lower")]
    + [(f"odes.{fn}_ms", "ms/call", "lower") for fn in ODES_FNS]
    + [("odes.certified_share", "fraction", "higher"),
       ("odes.closed_form_certificate_share", "fraction", "lower")]
    + [(f"builder.{fn}_ms", "ms/call", "lower")
       for fn in ("end_to_end", "positivity_intervals", "build_warp", "assemble_chart")]
    + [(f"builder.refusals.{r}", "count", "lower") for r in REFUSALS]
    + [("builder.tau_cache_hit_ratio", "fraction", "higher"),
       ("numutil.panel_build_ms", "ms/call", "lower"),
       ("numutil.panels", "panels/build", "lower"),
       ("numutil.invert_monotone_calls", "count", "lower"),
       ("numutil.halton_ms", "ms/call", "lower"),
       ("jets.mul_calls_per_point", "calls/point", "lower"),
       ("charts.components_calls_per_point", "calls/point", "lower"),
       ("charts.metric_jets_calls_per_point", "calls/point", "lower"),
       ("charts.scalar_jet_calls_per_point", "calls/point", "lower")]
    + [(f"charts.{fn}_ms", "ms/call", "lower")
       for fn in ("metric_jets", "christoffel", "ricci", "hessian")]
    + [(f"verify.{fn}.ms_per_point", "ms/point", "lower") for fn in CHECK_FNS + ("gather_points",)]
    + [("verify.excluded_points", "count", "lower"),
       ("verify.worst_tol_ratio", "ratio", "lower"),
       ("verify.run_suite_share", "fraction", "lower"),
       ("cli.certify_params_ms", "ms/call", "lower"),
       ("cli.sweep_cell_ms", "ms/call", "lower"),
       ("cli.sweep_busy_share", "fraction", "higher"),
       ("cli.cell_p50_ms", "ms", "lower"),
       ("cli.cell_p80_ms", "ms", "lower"),
       ("cli.wall_s", "s", "lower")]
    + [(f"trace.self_share.{layer}", "fraction", "lower") for layer in SPAN_LAYERS]
    + [("trace.coverage", "fraction", "higher"),
       ("trace.wall_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


# -- result hooks: run after a wrapped call returns ----------------------


def _count_components(tracer, args, out, seconds):
    """Count evaluations of the chart that end_to_end returns."""
    chart = out[0].chart
    object.__setattr__(chart, "components",
                       tracer.count_wrapper("charts.components", chart.components))


def _panels(tracer, args, out, seconds):
    tracer.count("numutil.panels", len(out.edges) - 1)


def _excluded(tracer, args, out, seconds):
    tracer.count("verify.excluded_points", out[1])


def _suite(tracer, args, out, seconds):
    tracer.count("verify.points", out.samples)
    for r in out.records:
        if r.tolerance > 0:
            tracer.record_max("verify.worst_tol_ratio", r.max_abs / r.tolerance)


def _certify(tracer, args, out, seconds):
    if args[0].on_distinguished_branch():
        tracer.count("odes.members_attempted", 2)


def _certificate(tracer, args, out, seconds):
    if all(part.is_zero for part in out):
        tracer.count("odes.members_certified")


def _sweep_row(tracer, args, out, seconds):
    _cell_time(tracer, args, out, seconds)
    status, note = out.get("status"), out.get("note", "")
    if status == "no-interval":
        tracer.count("builder.refusals.no_interval")
    elif status == "refused":
        reason = "obstruction" if "obstruction" in note else "other"
        tracer.count(f"builder.refusals.{reason}")


def _cell_time(tracer, args, out, seconds):
    tracer.note("cli.sweep_cell", (out.get("index"), out.get("status"), out.get("note", ""),
                                   seconds))


def install_cell_timer(tracer):
    """The one boundary the untraced sweep needs: per-cell status and latency."""
    tracer.wrap_function("kahlerqe.cli", "_sweep_cell", "cli.sweep_cell",
                         on_result=_cell_time)


def admitted_cell_seconds(tracer):
    """{cell index: latency} of the sweep cells the obstruction did not refuse.

    Obstruction refusals take about a millisecond and are half the grid,
    so a median over all cells would fall in the gap between the groups.
    """
    return {index: sec for index, status, note, sec in tracer.notes("cli.sweep_cell")
            if not (status == "refused" and "obstruction" in note)}


def install(tracer):
    """Wrap every layer boundary of the traced run."""
    from kahlerqe import builder, jets, numutil, rational

    tracer.wrap_function("kahlerqe.cli", "main", "cli.main")
    tracer.wrap_function("kahlerqe.cli", "certify_params", "cli.certify_params",
                         on_result=_certify)
    tracer.wrap_function("kahlerqe.cli", "_sweep_cell", "cli.sweep_cell",
                         on_result=_sweep_row)
    tracer.wrap_function("kahlerqe.cli", "_clamp_window", "cli.clamp_window")

    for fn in ODES_FNS:
        tracer.wrap_function("kahlerqe.odes", fn, f"odes.{fn}",
                             on_result=_certificate if fn == "closed_form_certificate" else None)
    tracer.wrap_function("kahlerqe.odes", "nonexistence_decision", "odes.nonexistence_decision")
    tracer.wrap_function("kahlerqe.odes", "phi_closed_form", "odes.phi_closed_form")
    tracer.wrap_method(rational.Polynomial, "__mul__", "rational.poly_mul", count_only=True)

    tracer.wrap_function("kahlerqe.builder", "end_to_end", "builder.end_to_end",
                         on_result=_count_components)
    for fn in ("positivity_intervals", "build_warp", "assemble_chart"):
        tracer.wrap_function("kahlerqe.builder", fn, f"builder.{fn}")
    tracer.wrap_method(builder.WarpProfile, "tau_of_logr", "builder.tau_of_logr",
                       count_only=True)

    tracer.wrap_method(numutil.PanelAntiderivative, "build", "numutil.panel_build",
                       on_result=_panels)
    tracer.wrap_function("kahlerqe.numutil", "invert_monotone", "numutil.invert_monotone",
                         count_only=True)
    tracer.wrap_function("kahlerqe.numutil", "halton_points", "numutil.halton")

    tracer.wrap_method(jets.Jet, "__mul__", "jets.mul", count_only=True)

    for fn in ("metric_jets", "scalar_jet", "christoffel", "ricci", "hessian"):
        tracer.wrap_function("kahlerqe.charts", fn, f"charts.{fn}")

    for fn in CHECK_FNS:
        tracer.wrap_function("kahlerqe.verify", fn, f"verify.{fn}")
    tracer.wrap_function("kahlerqe.verify", "gather_points", "verify.gather_points",
                         on_result=_excluded)
    tracer.wrap_function("kahlerqe.verify", "run_suite", "verify.run_suite",
                         on_result=_suite)


def _ratio(num, den):
    return num / den if den else 0.0


def _quantile(values, q):
    """Inclusive quantile, q in (0, 1); the single value for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def per_layer_metrics(tracer, cell_span, cells, workers, traced_wall, untraced):
    """Per-layer numbers of one traced repeat, keyed like ``PER_LAYER``.

    ``cell_span`` names the span that decides one parameter cell
    (``cli.main`` per command, or ``cli.sweep_cell`` inside a sweep).
    ``untraced`` holds ``wall_s`` and ``cell_s`` (seconds per cell) of the
    untraced repeat of the same run; cell latencies and ``cli.wall_s``
    come from it.
    """
    spans, cell_time, root_main = tracer.span_table(cell_span)
    counts = tracer.counts()
    points = counts["verify.points"]

    def ms_per_call(name):
        row = spans.get(name)
        return 1e3 * row["incl_s"] / row["calls"] if row else 0.0

    def incl(name):
        return spans.get(name, {}).get("incl_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    out = {"rational.poly_mul_calls": _ratio(counts["rational.poly_mul"], cells)}
    for fn in ODES_FNS:
        out[f"odes.{fn}_ms"] = ms_per_call(f"odes.{fn}")
    out["odes.certified_share"] = _ratio(counts["odes.members_certified"],
                                         counts["odes.members_attempted"])
    out["odes.closed_form_certificate_share"] = _ratio(incl("odes.closed_form_certificate"),
                                                       cell_time)
    for fn in ("end_to_end", "positivity_intervals", "build_warp", "assemble_chart"):
        out[f"builder.{fn}_ms"] = ms_per_call(f"builder.{fn}")
    for r in REFUSALS:
        out[f"builder.refusals.{r}"] = counts[f"builder.refusals.{r}"]
    tau_calls = counts["builder.tau_of_logr"]
    out["builder.tau_cache_hit_ratio"] = _ratio(
        max(0, tau_calls - counts["numutil.invert_monotone"]), tau_calls)
    out["numutil.panel_build_ms"] = ms_per_call("numutil.panel_build")
    out["numutil.panels"] = _ratio(counts["numutil.panels"], calls("numutil.panel_build"))
    out["numutil.invert_monotone_calls"] = counts["numutil.invert_monotone"]
    out["numutil.halton_ms"] = ms_per_call("numutil.halton")
    out["jets.mul_calls_per_point"] = _ratio(counts["jets.mul"], points)
    out["charts.components_calls_per_point"] = _ratio(counts["charts.components"], points)
    out["charts.metric_jets_calls_per_point"] = _ratio(calls("charts.metric_jets"), points)
    out["charts.scalar_jet_calls_per_point"] = _ratio(calls("charts.scalar_jet"), points)
    for fn in ("metric_jets", "christoffel", "ricci", "hessian"):
        out[f"charts.{fn}_ms"] = ms_per_call(f"charts.{fn}")
    for fn in CHECK_FNS + ("gather_points",):
        out[f"verify.{fn}.ms_per_point"] = _ratio(1e3 * incl(f"verify.{fn}"), points)
    out["verify.excluded_points"] = counts["verify.excluded_points"]
    out["verify.worst_tol_ratio"] = tracer.peak("verify.worst_tol_ratio")
    out["verify.run_suite_share"] = _ratio(incl("verify.run_suite"), cell_time)
    out["cli.certify_params_ms"] = ms_per_call("cli.certify_params")
    out["cli.sweep_cell_ms"] = ms_per_call("cli.sweep_cell")
    out["cli.sweep_busy_share"] = _ratio(incl("cli.sweep_cell"), workers * traced_wall)
    cell_ms = [1e3 * sec for sec in untraced["cell_s"].values()]
    out["cli.cell_p50_ms"] = _quantile(cell_ms, 0.5)
    out["cli.cell_p80_ms"] = _quantile(cell_ms, 0.8)
    out["cli.wall_s"] = untraced["wall_s"]
    total_self = sum(row["self_s"] for row in spans.values())
    for layer in SPAN_LAYERS:
        layer_self = sum(row["self_s"] for name, row in spans.items()
                         if name.split(".", 1)[0] == layer)
        out[f"trace.self_share.{layer}"] = _ratio(layer_self, total_self)
    out["trace.coverage"] = _ratio(root_main, traced_wall)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced["wall_s"]
    return out
