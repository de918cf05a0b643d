"""Fixed reference program: the yardstick for the host's current speed.

``run.py`` runs this as a child between CLI executions, for a quarter of
the CLI's time, and times it the same way, from spawn to reaping.  Its work resembles one CLI invocation in
kind: a fresh interpreter, ``import numpy``, then a loop of small complex
matrix products, determinants and Hermitian eigenvalue problems driven from
Python.  It uses nothing from the repository, so its time moves only with
the host, never with the program under test; the ``wall_rel`` metrics
divide the CLI's times by its median time in the same run.

It prints one checksum, which must not change.
"""

import numpy as np

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
ITERATIONS = 1200


def main() -> None:
    total = 0.0
    for i in range(ITERATIONS):
        t = 0.3 + 1e-4 * i
        n = (np.sin(t), np.cos(t) * np.sin(2 * t), np.cos(t) * np.cos(2 * t))
        sn = sum(c * s for c, s in zip(n, SIGMA))
        h = np.block([[np.eye(2), t * sn], [t * sn, -np.eye(2)]])
        total += float(np.linalg.eigvalsh(h)[-1]) + abs(np.linalg.det(h @ h.conj().T)) * 1e-3
    print(f"{total:.6f}")


if __name__ == "__main__":
    main()
