#!/usr/bin/env python
"""The unified solver API in five minutes.

Walks the ``Problem -> Session -> ScheduleResult`` facade end to end:
resolving algorithms by name from the registry, reading provenance
(backend, certification, wall time), growing a session incrementally,
switching to the sparse gain backend, and scheduling and validating
many problems at once.

Run:  python examples/api_quickstart.py [seed]
"""

import sys

from repro import Problem, list_algorithms, random_uniform_instance


def main(seed: int = 0) -> None:
    # -- the registry ---------------------------------------------------
    print("registered algorithms:")
    for spec in list_algorithms():
        print(f"  {spec.name:<22} [{spec.capabilities.flags()}]")

    # -- one problem, one session ---------------------------------------
    instance = random_uniform_instance(40, side=100.0, rng=seed)
    session = Problem(instance).session()  # sqrt powers by default

    result = session.schedule("first_fit")
    prov = result.provenance
    print(f"\nfirst_fit: {result.num_colors} colors "
          f"(backend={prov.backend}, certified={prov.certified}, "
          f"{prov.wall_seconds * 1e3:.1f} ms)")

    improved = session.schedule("local_search", schedule=result)
    print(f"local_search: {improved.num_colors} colors")

    lp = session.schedule("sqrt_coloring", rng=seed)
    print(f"sqrt_coloring: {lp.num_colors} colors "
          f"({lp.stats.lp_solves} LP solves)")

    # -- incremental: new requests arrive -------------------------------
    session.add_requests([(0, 11), (2, 23)])
    regrown = session.reschedule("first_fit")
    print(f"\nafter add_requests: n={session.instance.n}, "
          f"{regrown.num_colors} colors")

    # -- the sparse backend, certified ----------------------------------
    sparse = Problem(instance, backend="sparse").session().schedule("first_fit")
    print(f"\nsparse backend: {sparse.num_colors} colors, "
          f"certified dense-equal: {sparse.provenance.certified}")

    # -- many problems: one session each ------------------------------
    problems = [
        Problem(random_uniform_instance(24, rng=seed + i), backend="dense")
        for i in range(8)
    ]
    results = [problem.session().schedule("first_fit") for problem in problems]
    for result in results:
        result.validate()
    print(f"\nbatch of {len(results)}: "
          f"{[r.num_colors for r in results]} colors (all validated)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
