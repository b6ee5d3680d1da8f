"""Shared fixtures: the committed golden reports under tests/golden/."""

from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def golden_diff():
    """Compare an output directory with tests/golden/<name>.

    Returns the relative paths that are missing, extra or differ in bytes;
    an empty list means the run reproduced the golden exactly.
    """
    def diff(out_dir: Path, name: str) -> list[str]:
        got, want = _tree(out_dir), _tree(GOLDEN / name)
        return ([f"missing {k}" for k in sorted(want.keys() - got.keys())]
                + [f"extra {k}" for k in sorted(got.keys() - want.keys())]
                + [f"differs {k}" for k in sorted(want.keys() & got.keys())
                   if got[k] != want[k]])
    return diff
