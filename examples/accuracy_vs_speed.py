"""Choosing a PA configuration: the accuracy / latency / memory trade-off.

The exact FR method pays for I/O and plane-sweeps; the PA method answers
from in-memory polynomial coefficients.  How many polynomials and what
degree do you need?  This example sweeps (g, k) against the exact answer on
a realistic road-network workload and prints a decision table — the same
trade-off the paper's Figure 8(c,d) plots, in a form a practitioner can act
on.

Run with::

    python examples/accuracy_vs_speed.py
"""

from __future__ import annotations

from repro import SnapshotPDRQuery, SystemConfig
from repro.core.system import PDRServer
from repro.datagen import TripSimulator, synthetic_metro
from repro.experiments.report import format_table
from repro.methods.pa import PAMethod
from repro.metrics import RasterMeasure

N_VEHICLES = 2000
VARRHO = 2.0
CONFIGS = [(8, 3), (12, 4), (20, 3), (20, 5), (28, 5)]  # (g, k)


def main() -> None:
    config = SystemConfig()
    server = PDRServer(config, expected_objects=N_VEHICLES)

    # Maintain one extra PA structure per candidate configuration, all fed
    # by the same update stream.
    variants = {}
    for g, k in CONFIGS:
        pa = PAMethod(
            config.domain, l=config.l, horizon=config.horizon, g=g, k=k,
            prediction_window=config.prediction_window,
            table=server.table,
        )
        server.table.add_listener(pa)
        variants[(g, k)] = pa

    network = synthetic_metro(config.domain, grid_n=30, seed=5)
    sim = TripSimulator(network, N_VEHICLES, config.max_update_interval, seed=5)
    sim.initialize(server.table)
    sim.run_until(server.table, 20)

    qt = server.tnow + 10
    query: SnapshotPDRQuery = server.make_query(qt=qt, varrho=VARRHO)
    exact = server.evaluate("fr", query)
    raster = RasterMeasure(config.domain, resolution=1024)

    rows = []
    for (g, k), pa in sorted(variants.items(), key=lambda v: v[1].memory_bytes()):
        result = pa.query(query)
        report = raster.accuracy(exact.regions, result.regions)
        rows.append(
            {
                "g": g,
                "k": k,
                "memory_mb": pa.memory_bytes() / 1e6,
                "query_ms": result.stats.cpu_seconds * 1000,
                "r_fp_pct": 100 * report.r_fp,
                "r_fn_pct": 100 * report.r_fn,
                "jaccard": report.jaccard,
            }
        )
    rows.append(
        {
            "g": "-",
            "k": "-",
            "memory_mb": server.histogram.memory_bytes() / 1e6,
            "query_ms": 1000 * (exact.stats.cpu_seconds),
            "r_fp_pct": 0.0,
            "r_fn_pct": 0.0,
            "jaccard": 1.0,
        }
    )
    print(
        format_table(
            rows,
            title=(
                f"PA configurations vs exact FR "
                f"({N_VEHICLES} vehicles, varrho={VARRHO:g}, l={config.l:g}; "
                f"last row = FR itself, io cost "
                f"{exact.stats.io_seconds:.1f}s not shown)"
            ),
        )
    )
    print(
        "\nreading: more polynomials (g) buys locality, higher degree (k) buys "
        "sharpness; past g=20, k=5 the error flattens while memory keeps "
        "growing — matching the paper's choice of 400 degree-5 polynomials."
    )


if __name__ == "__main__":
    main()
