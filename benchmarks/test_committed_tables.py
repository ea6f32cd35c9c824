"""``benchmarks/results/`` holds exactly the tables ``repro bench``
renders at full scale, byte for byte."""

import pathlib

RESULTS = pathlib.Path(__file__).parent / "results"


def test_committed_tables_are_what_repro_bench_renders(tables):
    committed = {path.stem: path.read_bytes()
                 for path in RESULTS.glob("*.txt")}
    rendered = {name: (text + "\n").encode("utf-8")
                for name, (text, _) in tables.items()}
    moved = [f"{name}.txt ("
             + ("not rendered" if name not in rendered
                else "not committed" if name not in committed
                else "differs") + ")"
             for name in sorted(committed.keys() | rendered.keys())
             if committed.get(name) != rendered.get(name)]
    assert not moved, (
        "benchmarks/results/ is not what `repro bench` renders: "
        + ", ".join(moved) + ".  For a deliberate change, regenerate the "
        "tables with `repro bench`, delete any it no longer renders, and "
        "commit them; after a `repro bench --quick` or `--seed` run, "
        "restore them with `git checkout benchmarks/results/`.")
