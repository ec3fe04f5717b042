"""One fresh-interpreter set-up: import the CLI and the integrator, build every registry.

Usage: python3 perfbench/setup_probe.py SRC_DIR

Prints one JSON object with the seconds spent in each step.  A CLI user pays
all of them on every ``krawpv`` call.
"""

import json
import sys
import time


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    t0 = time.perf_counter()
    import krawpv.cli  # noqa: F401
    import krawpv.integrate  # noqa: F401  (scipy)
    from krawpv import hamiltonians, maps, systems

    t1 = time.perf_counter()
    systems.registry()
    t2 = time.perf_counter()
    systems.ode2_registry()
    t3 = time.perf_counter()
    maps.map_registry()
    t4 = time.perf_counter()
    hamiltonians.hamiltonian_registry()
    t5 = time.perf_counter()
    print(json.dumps({
        "setup.import_s": t1 - t0,
        "systems.registry_s": t2 - t1,
        "systems.ode2_registry_s": t3 - t2,
        "maps.registry_s": t4 - t3,
        "hamiltonians.registry_s": t5 - t4,
    }))


if __name__ == "__main__":
    main()
