"""Set-up probe: import fanostat in a fresh interpreter and evaluate once.

Usage: python3 setup_probe.py SOURCE_DIR JSON_SPEC

Prints the seconds from before the import to the end of the workload's first
model evaluation. The spec comes from ``Workload.probe``.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(src, spec):
    sys.path.insert(0, src)
    import numpy as np
    from fanostat import cli
    from fanostat.averaging import ModelCurves
    from fanostat.params import PhysicalParams

    if spec["kind"] == "model":
        model = ModelCurves(PhysicalParams(**spec["params"]))
        model.transmission(np.asarray(spec["det_t"]))
        model.g2zero(np.asarray(spec["det_g"]))
        for d in spec["hists"]:
            model.g2_trace(d, np.asarray(spec["tau"]))
    elif spec["kind"] == "scan":
        start, stop, count = spec["grid"]
        cli.run_scan(cli.ScanRequest(
            mode="transmission", params=PhysicalParams(**spec["params"]),
            grid_start=start, grid_stop=stop, grid_count=int(count),
            out_path="unused", average=spec["average"]))
    else:
        cli.oracle_check(**spec["grid"])
    return time.perf_counter() - START


if __name__ == "__main__":
    print(repr(main(sys.argv[1], json.loads(sys.argv[2]))))
