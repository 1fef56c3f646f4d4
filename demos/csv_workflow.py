"""End-to-end CSV workflow through the command-line interface.

Writes a simulated dataset to a CSV file, then runs the test on that file
with an explicit design formula — the same two commands a shell user would
run, executed in-process:

    hsicreg simulate --model model2 --n 150 --a 0.6 --seed 1 --format csv --out data.csv
    hsicreg test --input data.csv --response y --predictors x1,x2,x3,x4 \
        --design "1 + x1 + x2 + x3 + x4" --B 500 --format json

No bandwidth flags are needed: ``test`` scales its kernels to the file's four
predictors (2*sqrt(4) for the predictors, sqrt(2) for the residuals).
model2's mean has an x2^2 term the fitted design omits (a=0.6), so the test
should reject; rerun with --a 0 to see it hold the level instead.
"""

import json
import tempfile
from pathlib import Path

from hsicreg.cli import main as cli

A = 0.6
N = 150
B = 500


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        data_path = Path(tmp) / "data.csv"
        code = cli([
            "simulate", "--model", "model2", "--n", str(N), "--a", str(A),
            "--seed", "1", "--format", "csv", "--out", str(data_path),
        ])
        assert code == 0
        print(f"wrote {data_path.name}: {len(data_path.read_text().splitlines()) - 1} rows")

        out_path = Path(tmp) / "result.json"
        code = cli([
            "test", "--input", str(data_path), "--response", "y",
            "--predictors", "x1,x2,x3,x4", "--design", "1 + x1 + x2 + x3 + x4",
            "--B", str(B), "--out", str(out_path),
        ])
        assert code == 0
        result = json.loads(out_path.read_text())
        print(f"design: {' + '.join(result['design'])}")
        print(f"n*stat = {result['statistic']:.4f}, p = {result['p_value']:.4f}, "
              f"reject = {result['reject']}")


if __name__ == "__main__":
    main()
