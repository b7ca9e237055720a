"""Golden fingerprints of the CLI's result outputs.

Each fingerprint is a SHA-256 of what one ``delib slate|audit|rank|route``
invocation writes to stdout, in json and in csv, or of one file that
``delib landscape`` writes, on a seeded two-bloc wide CSV. A change to a
serializer or to the computation behind a command that alters any output
byte changes a hash and fails here. Print the current values with

    PYTHONPATH=src python tests/test_cli_fingerprints.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from delib.cli import main

CASES = {
    "slate/greedy": ["slate", "--k", "3"],
    "slate/exact-coverage": ["slate", "--k", "3", "--exact", "--rule", "coverage"],
    "slate/all-ideas": ["slate", "--k", "12"],
    "audit/greedy": ["audit", "--k", "2", "--greedy"],
    "audit/exact-level-2": ["audit", "--k", "3", "--level", "2"],
    "audit/coverage-level-2": ["audit", "--k", "6", "--rule", "coverage", "--level", "2"],
    "rank/proportional": ["rank", "--mode", "proportional"],
    "rank/elicitation": ["rank", "--mode", "elicitation"],
    "rank/elicitation-weights": ["rank", "--mode", "elicitation", "--c-explore", "0.3", "--prior-weight", "2"],
    "route/uniform": ["route", "--policy", "uniform", "--budget", "25", "--seed", "7"],
    "route/ranking": ["route", "--policy", "ranking", "--budget", "25", "--seed", "7"],
    "route/uncertainty": ["route", "--policy", "uncertainty", "--budget", "25", "--seed", "7"],
}

FORMATS = ("json", "csv")

# embedded clustering runs in d = 2, full clustering in the 8 idea columns;
# embedded k = 3 reports blocking coalitions, the others report none
LANDSCAPE_CASES = {
    "landscape/embedded-k2": ["--k", "2", "--seed", "3"],
    "landscape/embedded-k3": ["--k", "3", "--seed", "0"],
    "landscape/full-k2": ["--k", "2", "--seed", "3", "--space", "full"],
    "landscape/full-k6": ["--k", "6", "--seed", "3", "--space", "full"],
}

LANDSCAPE_FILES = ("embedding.csv", "components.csv", "audit.json")


def write_wide_csv(path: Path) -> None:
    """60 participants over 8 ideas, about half the other cells unknown.

    Participants 0-29 form six blocs of five, each approving its own idea
    among 0-5 (and sometimes one more of them); participants 30-59 approve
    ideas 6 and 7. A coverage slate takes only one of 6 and 7, so the
    level-2 audit of such a slate reports the second bloc as a violation.
    """
    rng = np.random.default_rng(2024)
    lines = ["participant," + ",".join(f"idea {p}" for p in range(8))]
    for i in range(60):
        cells = np.where(rng.random(8) < 0.5, 0, -1)
        if i < 30:
            cells[i // 5] = 1
            if rng.random() < 0.3:
                cells[rng.integers(6)] = 1
        else:
            cells[[6, 7]] = 1
            if rng.random() < 0.15:
                cells[7] = -1
        lines.append(f"v{i}," + ",".join("" if c < 0 else str(c) for c in cells))
    path.write_text("\n".join(lines) + "\n")


def run(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0, argv
    return buffer.getvalue()


def cli_outputs(matrix_csv: str) -> dict[str, str]:
    return {
        f"{name}/{fmt}": run([*args, "--format", fmt, "--input", matrix_csv])
        for name, args in CASES.items()
        for fmt in FORMATS
    }


def landscape_outputs(matrix_csv: str, out_root: Path) -> dict[str, bytes]:
    outputs = {}
    for name, args in LANDSCAPE_CASES.items():
        out = out_root / name
        assert main(["landscape", *args, "--input", matrix_csv, "--out", str(out)]) == 0, args
        outputs.update({f"{name}/{file}": (out / file).read_bytes() for file in LANDSCAPE_FILES})
    return outputs


def cli_fingerprints(matrix_csv: str, out_root: Path) -> dict[str, str]:
    outputs = {key: text.encode() for key, text in cli_outputs(matrix_csv).items()}
    outputs.update(landscape_outputs(matrix_csv, out_root))
    return {key: hashlib.sha256(data).hexdigest() for key, data in outputs.items()}


CLI_FINGERPRINTS = {
    "slate/greedy/json": "e85a2926fc6fb12eb3705976e38d032f9fa6d6519626b2cbcb280dbe0240c10a",
    "slate/greedy/csv": "be9271591688e6119e0b35a4fa0e6f9847619bd7ca89e0689369980b6a0ff4c0",
    "slate/exact-coverage/json": "07b9eb661791d680e42471649f9b7d11364f1df45208dd8701aa66e340af0ef9",
    "slate/exact-coverage/csv": "d8744f1199eb944a582d3e0fdb90ad85ec2f702be7e0647c76f90082b8288df6",
    "slate/all-ideas/json": "92dbd1bac39da318815301cf60e0016c0c113e2365cf0e965e114bf8858363a1",
    "slate/all-ideas/csv": "96522702579ebfae4b83c9ddb4bce5bd33bc46d3f5657d2d51dc2cf7d6825cb4",
    "audit/greedy/json": "b806551d22d6dea02ed387788881ac750f865d8b6b619ab982c55ec2953df276",
    "audit/greedy/csv": "37d94468c3c349775feea445e66f5ed6b358726fbb46260a06e393928e5d4b7c",
    "audit/exact-level-2/json": "e85a2926fc6fb12eb3705976e38d032f9fa6d6519626b2cbcb280dbe0240c10a",
    "audit/exact-level-2/csv": "37d94468c3c349775feea445e66f5ed6b358726fbb46260a06e393928e5d4b7c",
    "audit/coverage-level-2/json": "dc30c86651baadaf50475e253e6fc17018b1bf1f85b2dff97ba1a209d3bed092",
    "audit/coverage-level-2/csv": "696dafb28edccb23cbebe19427399a88feeb556fb94b873e0b55a6e66d5118a4",
    "rank/proportional/json": "3584507e6ae5ffb2dc1d5332c9b124feae08d24e1676db037a05111132f9f927",
    "rank/proportional/csv": "7e17a84171be02305bffacc9af0c8b20bc2a17aee15d4dcfd1de36e7df90ba2b",
    "rank/elicitation/json": "acc2c1176ebf0200fcb4c1203718ce5fec0864ea2fdbe7b78f2b91949f7d34d0",
    "rank/elicitation/csv": "371af0f0d525778c8b660eb63c3ed9412c0d7d6e97d55b5b5421633fcab33535",
    "rank/elicitation-weights/json": "d4a2ff0626f16b490a45eb3afb102c264cf6d952ecc0cf1a3ba7e963e378107e",
    "rank/elicitation-weights/csv": "7661eb9afc37005a6435e642dd76ef7503e88962892356db4a7d50a7280c6909",
    "route/uniform/json": "5b3022152fbfc941ca7523eeb33367f1cb82922f38d073855b10007f15511a12",
    "route/uniform/csv": "f171265083b70dfb87d752e1c0761bbcdf93559dee8c60ba25369ff1ffb5ec1e",
    "route/ranking/json": "b00f6960859732e969c7def4d212c6f7f945571d75964cf5223964e888d52e02",
    "route/ranking/csv": "1b2a83c7107615cec22726383f02b19592fabe379a47b91c2c3abb5204b5b1ad",
    "route/uncertainty/json": "a0c3a3dff251203dbae63eb4ddc8dc5835ff317989b9cdbe3ef70818e3ad576b",
    "route/uncertainty/csv": "0c0ae73b41368414b6d55f80936d12dd1647a82fc087af0fdefe8a2227c4607d",
    "landscape/embedded-k2/embedding.csv": "d588bc1ba55f9b0915a8f2d454a75cc90d3431bc422d82eeba4887071aaa47dd",
    "landscape/embedded-k2/components.csv": "44233175204dfaaea2593f0ffefe6d0da29b34c65f126b26f44d1371b2ffa843",
    "landscape/embedded-k2/audit.json": "14590f0fbbbd9b9c2d555ba998ee3aa26712af9425c2a94f8acd7cd98918c5ec",
    "landscape/embedded-k3/embedding.csv": "69a549ea2657ed8271079028c42725dab8bea911babc016c15d8f1577b483b0b",
    "landscape/embedded-k3/components.csv": "44233175204dfaaea2593f0ffefe6d0da29b34c65f126b26f44d1371b2ffa843",
    "landscape/embedded-k3/audit.json": "a30e2f58ee68a5cd7960684daef8736677ce4d00cb5bb26ff302edcdaf2f0521",
    "landscape/full-k2/embedding.csv": "8a96528c01d5d7fdaebdb99f50bda6bc28fcc16fc1df00048e51bf06dd172cd6",
    "landscape/full-k2/components.csv": "44233175204dfaaea2593f0ffefe6d0da29b34c65f126b26f44d1371b2ffa843",
    "landscape/full-k2/audit.json": "d53abc98ab6b3c0e0a1d37defad31ed1ff0abfe960197f18ed14916cc635719f",
    "landscape/full-k6/embedding.csv": "50013f9d3c0005ec75cbcd4f5522262080fed41bb1a139b0afc4df590d9a5f2d",
    "landscape/full-k6/components.csv": "44233175204dfaaea2593f0ffefe6d0da29b34c65f126b26f44d1371b2ffa843",
    "landscape/full-k6/audit.json": "f4c854a057bd314bcdbff5b223f7a976fc4974c13c125febed5459ce9970aa31",
}


@pytest.fixture(scope="module")
def matrix_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "matrix.csv"
    write_wide_csv(path)
    return str(path)


@pytest.fixture(scope="module")
def current(matrix_csv, tmp_path_factory):
    return cli_fingerprints(matrix_csv, tmp_path_factory.mktemp("landscape"))


@pytest.mark.parametrize("key", sorted(CLI_FINGERPRINTS))
def test_cli_fingerprint(current, key):
    assert current[key] == CLI_FINGERPRINTS[key]


def test_cli_fingerprints_cover_every_case(current):
    assert set(current) == set(CLI_FINGERPRINTS)


def test_a_landscape_case_reports_blocking_coalitions(matrix_csv, tmp_path):
    args = [*LANDSCAPE_CASES["landscape/embedded-k3"], "--input", matrix_csv, "--out", str(tmp_path)]
    assert main(["landscape", *args]) == 0
    audit = json.loads((tmp_path / "audit.json").read_text())
    assert len(audit["blocking_coalitions"]) > 0


@pytest.mark.parametrize("name", ["audit/greedy", "rank/elicitation", "route/ranking", "slate/greedy"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_out_file_holds_the_stdout_bytes(matrix_csv, tmp_path, name, fmt):
    args = [*CASES[name], "--format", fmt, "--input", matrix_csv]
    out = tmp_path / f"result.{fmt}"
    assert run([*args, "--out", str(out)]) == ""
    assert out.read_bytes() == run(args).encode()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matrix.csv"
        write_wide_csv(path)
        for key, value in cli_fingerprints(str(path), Path(tmp)).items():
            print(f'    "{key}": "{value}",')
