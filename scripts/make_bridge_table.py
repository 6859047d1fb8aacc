"""Regenerate the packaged TT-bridge table (src/zicount/bridge_tt_table.npy).

    python scripts/make_bridge_table.py [--out PATH]

Computes every node with ``zicount.bridge_table.tabulate`` for dj >= dk
and mirrors it. The output is bit-for-bit deterministic. The table's tests
recompute some of its nodes and compare the file with the sha256 digest
printed here, which tests/test_bridge_table.py records.
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from zicount import bridge_table  # noqa: E402


def table_values() -> np.ndarray:
    ns = bridge_table.SIGMA_NODES.size
    j, k = np.tril_indices(bridge_table.DELTA_NODES.size)
    j, k, s = np.repeat(j, ns), np.repeat(k, ns), np.tile(np.arange(ns), j.size)
    values = np.empty(bridge_table.TABLE_SHAPE)
    values[j, k, s] = values[k, j, s] = bridge_table.tabulate(s, j, k)
    return values


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path(bridge_table.__file__).with_name(bridge_table.TABLE_FILE))
    args = parser.parse_args(argv)
    bridge_table.save_table(table_values(), args.out)
    print(f"wrote {args.out}, sha256 {hashlib.sha256(args.out.read_bytes()).hexdigest()}")


if __name__ == "__main__":
    main()
