"""Size schedules of the three workloads.

The schedule fixes everything that sets an item's cost: chain depths,
hyperbolicity of the Mobius elements, mode counts and grid sizes. The
workload seed only draws coefficients, rotations and vector fields, so the
mix of item sizes is the same for every seed. Stdlib only: ``run.py``
records the schedule in every result file without importing the package.

A run is a fixed number of rounds, ``rounds(workload, seconds)``, so that
both sides of a comparison measure the same items and the tail rank (ten
samples beyond it) falls at the same place in the size mix. ``round_s`` is
the nominal item time of one round on the machine the benchmark was defined
on (2-core Intel Xeon, Python 3.11, numpy 2.4, one BLAS thread); it converts
``--seconds`` into rounds and is never re-measured, so faster code finishes
sooner instead of measuring more items.
"""

GROUP_ALGEBRA = {
    # 8 rounds at 40 s: the 11th slowest item is then a TORUS s=2 lift, the
    # third of that cluster of 8, with the 8 LINE s=2 lifts above it.
    "round_s": 5.0,
    "chain_depths": (5, 10, 15),
    # Chain links are random_diffeo draws (2-4 modes) rescaled so that
    # max|phi' - 1| is exactly this. With the library's default draws a
    # depth-15 chain cost 0.34 s to 3.13 s over six seeds (215 to 517 modes),
    # so the seed rather than the code would set throughput; rescaled to 0.4
    # it reached 113 to 166 modes in 0.13 s to 0.32 s over eight seeds.
    "chain_slope_deviation": 0.4,
    # Inverses take the library's random_diffeo draws unchanged (slope floor
    # 0.2), which includes lifts on which the Newton solve can fail.
    "inverse_count": 3,
    "flow_times": (-0.3, -0.1, 0.1, 0.3),
    # Flow fields are random_vector_field draws rescaled to this max|xi'|.
    "flow_field_slope": 1.5,
    "bracket_count": 3,
    "lift_structures": ("torus", "line"),
    "lift_scalings": (0.5, 1.0, 1.5, 2.0),
}

SAMPLED_FIELDS = {
    "round_s": 0.7,
    "schwarzian_grids": (256, 512, 1024, 2048),
    "schwarzian_structures": ("torus", "line"),
    "pullback_count": 2,
    "sum_depths": (1, 8, 16, 31),
    "ghys_grids": (256, 512, 1024, 2048),
    "hessian_angles": 2,
    "curvature_points": 16,
    "cartan_eps": (0.02, 0.01, 0.005, 0.0025),
}

CLI_RUNS = {
    "round_s": 17.5,
    # Items run in other processes, which the workload process's calibration
    # does not see: over ten seeds their scaled latencies spread more (0.16)
    # than the wall-clock ones (0.07), so they are reported as measured.
    "scale_to_reference": False,
    "verify_suites": ("cocycles", "curvature", "hessian", "symplectic", "bott-thurston", "ghys"),
    "schwarzian_variants": (
        ("classical", "torus", "file"),
        ("modified", "torus", "file"),
        ("universal", "line", "file"),
        ("universal", "torus", "stdin"),
    ),
    "metric_maps": ("json", "json-embed", "csv-diffeo"),
    "grid": 256,
}

# Median time of ``worker.calibrate`` inside a run on that machine. Times are
# reported at that machine's speed: an in-process item latency is scaled by
# this over the median calibration within 2 s of the item, a set-up time by
# this over the calibration right after set-up (see run.py). Over ten seeds
# this cut the spread of items_per_s on group-algebra from 0.39 to 0.06.
CALIBRATION_REF_NS = 25_000_000

SCHEDULES = {
    "group-algebra": GROUP_ALGEBRA,
    "sampled-fields": SAMPLED_FIELDS,
    "cli-runs": CLI_RUNS,
}


def rounds(workload: str, seconds: float, traced: bool = False) -> int:
    """Rounds in one run: untraced at least 2; a traced run executes every
    item twice (traced and untraced), so it runs half as many, at least 1."""
    count = max(2, round(seconds / SCHEDULES[workload]["round_s"]))
    return max(1, count // 2) if traced else count
