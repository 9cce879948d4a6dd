"""One measured benchmark cycle in a fresh process.

Usage: python3 child.py SPEC_JSON

SPEC_JSON names the margnet source directory, the CLI calls to make in
order (each a [name, argv] pair) or none for an import-only probe, an
optional spans path (turns tracing on) and the result path. The child times
`import margnet.cli`, then each `margnet.cli.main(argv)` call, and writes
the timings, exit codes, peak RSS and an environment record as JSON.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be read."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import margnet.cli as cli
    setup_s = time.perf_counter() - t0

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"margnet imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    recorder = None
    if spec.get("spans"):
        import tracer

        recorder = tracer.SpanRecorder()
        tracer.instrument(recorder)

    calls = []
    for name, argv in spec["commands"]:
        out = io.StringIO()
        err = None
        scope = recorder.span(f"cli.{name}") if recorder else contextlib.nullcontext()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            try:
                with scope:
                    rc = cli.main(argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
            except Exception:  # noqa: BLE001 - a crash is a failed call, reported below
                rc, err = -1, traceback.format_exc()
        calls.append({"name": name, "rc": rc, "s": time.perf_counter() - start,
                      "stdout": out.getvalue(), "error": err})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "calls": calls, "peak_rss_mb": peak_rss_mb,
              "env": environment()}
    if recorder is not None:
        recorder.write(spec["spans"])
        result["layers"] = tracer.summarize(recorder)
        result["self_sums"] = recorder.self_time_by_root()
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
