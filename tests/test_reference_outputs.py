"""The bytes of the paper reproduction: demos/reference.cfg's four outputs, on both paths.

``theory``, ``codec`` and ``trace`` write CSVs and ``validate`` prints its
report (exit 2: the zero-holding closed form misses its band).  Their sha256
digests below tie the suite to numpy's ``Generator`` stream and to the libm
they were recorded with (numpy 2.4.6, Python 3.11.7, x86-64 Linux, glibc).
Moving them is a visible output change: regenerate them with

    PYTHONPATH=src python tests/test_reference_outputs.py

which rewrites ``reference_outputs.json`` and prints the digests to paste
here (``normalized_theory``'s into NORMALIZED_THEORY_SHA256: ``theory`` with
normalized_bounds = true), and give the reason in CHANGES.md.  The JSON holds the sha256 prefix of
each block of lines, only to say where an output moved.
"""

import contextlib
import hashlib
import io
import json
from itertools import zip_longest
from pathlib import Path

import pytest

from csi_feedback import _kernel, cli

REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "reference.cfg"
BLOCKS_PATH = Path(__file__).with_name("reference_outputs.json")
COMMANDS = ("theory", "codec", "validate", "trace")
EXIT_CODES = {"theory": 0, "codec": 0, "validate": 2, "trace": 0}
MAX_BLOCKS = 256

REFERENCE_SHA256 = {
    "theory": "d100ca250f901248e29dad7e2df53b29ea29b031014b7968f9384a922db81999",
    "codec": "f78331d509ae85549848a987990124b1b4a764de63fe2a1d6ed57ef165a4fbb7",
    "validate": "3e6e1e65c8ac3b37eb6aea4dd7f86ed7012a2a2bf2b30b8538c96c90ecc49097",
    "trace": "5beb04b736beb92401eef51226aedf1686e104b71607359f4bcff44e0d94909b",
}
# ``theory`` with normalized_bounds = true, the other form of the aperiodic bounds
NORMALIZED_THEORY_SHA256 = "895a784203ea46fd93cb19f6996d8ade6b48e43ae7d797cfd5acee30b239f071"

SMALL_CONFIG = """
ar_coeffs = 0.5, 0.2, 0.1, 0.05
innovation_var = 1.0
obs_noise_var = 1.0
predictor_order = 4
schemes = aperiodic_prediction, aperiodic_zh, periodic, uniform_aperiodic, practical_ar1
n_points = 10
quantizer_bits = 2, 6
trials = 2
samples_per_trial = 2000
seed = 11
"""


def run_commands(config: Path, out_dir: Path) -> dict[str, tuple[int, bytes]]:
    """Each command's exit code and output: the CSV it writes, or for ``validate`` its stdout."""
    outputs = {}
    for command in COMMANDS:
        path = out_dir / f"{command}.csv"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([command, "--config", str(config), "--out", str(path)])
        data = stdout.getvalue().encode() if command == "validate" else path.read_bytes()
        outputs[command] = code, data
    return outputs


def block_digests(data: bytes, per_block: int) -> list[str]:
    """The sha256 prefix of each run of ``per_block`` lines of ``data``."""
    lines = data.splitlines(keepends=True)
    return [
        hashlib.sha256(b"".join(lines[i : i + per_block])).hexdigest()[:8]
        for i in range(0, len(lines), per_block)
    ]


def moved_lines(command: str, data: bytes) -> str:
    """Where ``data`` first leaves the recorded output of ``command``, from its block digests."""
    recorded = json.loads(BLOCKS_PATH.read_text())[command]
    per_block = recorded["lines_per_block"]
    pairs = zip_longest(recorded["blocks"], block_digests(data, per_block))
    index = next((i for i, (old, new) in enumerate(pairs) if old != new), None)
    if index is None:
        return f"{command}: every block of lines matches, so a line ending moved"
    first, lines = index * per_block, data.splitlines()
    now = repr(lines[first].decode()) if first < len(lines) else "<end of output>"
    if per_block == 1:
        return f"{command}: first differing line {first + 1}, which now reads {now}"
    span = f"lines {first + 1}-{first + per_block}"
    return f"{command}: first differing block of {span}, which now begins {now}"


def first_difference(expected: bytes, actual: bytes) -> str:
    """The first line where two outputs differ, with both versions of it."""
    pairs = zip_longest(expected.splitlines(), actual.splitlines(), fillvalue=b"<end of output>")
    for number, (old, new) in enumerate(pairs, start=1):
        if old != new:
            return f"line {number}: {old.decode()!r} != {new.decode()!r}"
    return "every line matches, so a line ending differs"


def test_reference_outputs_keep_their_digests(tmp_path):
    moved = []
    for command, (code, data) in run_commands(REFERENCE_CONFIG, tmp_path).items():
        assert code == EXIT_CODES[command], f"{command} exited {code}"
        if hashlib.sha256(data).hexdigest() != REFERENCE_SHA256[command]:
            moved.append(moved_lines(command, data))
    assert not moved, "outputs moved on demos/reference.cfg:\n" + "\n".join(moved)


def normalized_theory(out_dir: Path) -> tuple[int, bytes]:
    """Exit code and CSV of ``theory`` on demos/reference.cfg with normalized_bounds = true."""
    text = REFERENCE_CONFIG.read_text()
    assert "normalized_bounds = false" in text
    config, path = out_dir / "normalized.cfg", out_dir / "normalized.csv"
    config.write_text(text.replace("normalized_bounds = false", "normalized_bounds = true"))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["theory", "--config", str(config), "--out", str(path)])
    return code, path.read_bytes()


def test_normalized_theory_keeps_its_digest(tmp_path, either_path):
    code, data = normalized_theory(tmp_path)
    assert code == 0, f"normalized theory exited {code}"
    assert hashlib.sha256(data).hexdigest() == NORMALIZED_THEORY_SHA256, (
        "normalized theory: " + moved_lines("normalized_theory", data)
    )


def test_kernel_and_fallback_write_the_same_bytes(tmp_path, monkeypatch):
    if _kernel.load() is None:
        pytest.skip("no compiled kernel to compare with the fallback")
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG)
    outputs = {}
    for path in ("kernel", "fallback"):
        if path == "fallback":
            monkeypatch.setattr(_kernel, "load", lambda: None)
        (tmp_path / path).mkdir()
        outputs[path] = run_commands(config, tmp_path / path)
    for command in COMMANDS:
        (code, data), (fallback_code, fallback_data) = (
            outputs["kernel"][command],
            outputs["fallback"][command],
        )
        assert fallback_code == code, f"{command}: exit {fallback_code} != {code}"
        assert fallback_data == data, f"{command}: " + first_difference(data, fallback_data)
        assert code == 0 or command == "validate", f"{command} exited {code}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        outputs = run_commands(REFERENCE_CONFIG, Path(scratch))
        outputs["normalized_theory"] = normalized_theory(Path(scratch))
    recorded = {}
    for command, (code, data) in outputs.items():
        per_block = max(1, -(-len(data.splitlines()) // MAX_BLOCKS))
        recorded[command] = {"lines_per_block": per_block, "blocks": block_digests(data, per_block)}
        print(f'    "{command}": "{hashlib.sha256(data).hexdigest()}",  # exit {code}')
    BLOCKS_PATH.write_text(json.dumps(recorded, indent=1) + "\n")
