"""One repeat of one workload, in a fresh interpreter.

Usage: python3 child.py SPEC.json

The spec names the checkout root, the workload's commands and configs,
where to write the result, and whether to trace.  Set-up ends once
``kahlerqe.cli`` is imported and every config is loaded; the parent counts
it from the moment it spawned the child, so interpreter start is included.
The child's CPU time up to then, interpreter start included, is the set-up
CPU time; a speed probe runs during set-up to give the processor speed to
scale it by, and its own CPU time is taken out.
The commands then run in-process through ``kahlerqe.cli.main``, each timed
from outside in wall time.  If the spec asks for it, a speed probe runs
beside them, and their CPU time is taken without the probe's.  With
``setup_only`` the child stops after set-up.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

# the speed probe samples set-up more often, since set-up is short
SETUP_PROBE_PERIOD_S = 0.05
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cpu_seconds():
    """User plus system CPU seconds of this process, all its threads, and
    the child processes it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('openblas configuration', '')}".strip()
    except (TypeError, KeyError):
        blas = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
    }


def main(spec_path):
    from speed import SpeedProbe

    with SpeedProbe(period=SETUP_PROBE_PERIOD_S) as setup_probe:
        with open(spec_path) as fh:
            spec = json.load(fh)
        sys.path.insert(0, os.path.join(spec["root"], "src"))
        import kahlerqe.cli as cli

        for path in spec["configs"]:
            cli.load_config(path)
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "setup_cpu_s": _cpu_seconds() - setup_probe.cpu_s,
              "setup_ref_slice_s": setup_probe.samples}
    if spec["setup_only"]:
        _write(spec["result"], result)
        return 0

    from tracer import Tracer
    import layers

    sweep = spec["cell_span"] == "cli.sweep_cell"
    tracer = Tracer()
    if spec["trace"]:
        install = layers.install
    elif sweep:
        install = layers.install_cell_timer
    else:
        def install(tracer):
            pass
    runs = []
    log = io.StringIO()
    probe = SpeedProbe()
    cpu0 = _cpu_seconds()
    with tracer.installed(install), (probe if spec["probe"] else contextlib.nullcontext()):
        for argv in spec["commands"]:
            entry = {"argv": argv, "exit": None, "error": None}
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    entry["exit"] = cli.main(argv)
            except SystemExit as exc:
                entry["exit"] = exc.code
            except Exception:
                entry["error"] = traceback.format_exc()
            entry["start"], entry["end"] = t0, time.perf_counter()
            runs.append(entry)
    cpu = _cpu_seconds() - cpu0 - probe.cpu_s
    wall = runs[-1]["end"] - runs[0]["start"]
    if sweep:
        cell_s = layers.admitted_cell_seconds(tracer)
    else:
        cell_s = {i: r["end"] - r["start"] for i, r in enumerate(runs)}
    result.update(
        commands=runs,
        wall_s=wall,
        cpu_s=cpu,
        ref_slice_s=probe.samples,
        cell_s=cell_s,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=_environment(),
    )
    if spec["trace"]:
        result["per_layer"] = layers.per_layer_metrics(
            tracer, spec["cell_span"], spec["cells"], spec["workers"],
            traced_wall=wall, untraced=spec["untraced"])
    with open(spec["log"], "w") as fh:
        fh.write(log.getvalue())
    _write(spec["result"], result)
    return 0


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
