import ast
import importlib.util
import inspect
from pathlib import Path

from haltonclt import cli, discrepancy

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_benchmark_patch_list_resolves():
    # importing the tracer resolves every library function the benchmark
    # patches, so a rename or deletion in the library fails here
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    patched = [fn for fn, _, _ in spans.SPANS] + [fn for fn, _ in spans.COUNTED]
    for fn in patched:
        assert any(
            value is fn for module in spans.MODULES for value in vars(module).values()
        ), fn.__qualname__


def test_write_series_csv_takes_the_path_first():
    # the benchmark weighs cli.csv_bytes as os.path.getsize(args[0])
    first = next(iter(inspect.signature(cli.write_series_csv).parameters))
    assert first == "path"


def test_naive_oracle_shares_no_code_with_what_it_checks():
    # the naive counter is the oracle of the series and the CRT counter, so it
    # may not call their digit reversal, block flags, frames or residue counts
    names = set(discrepancy.two_sided_discrepancy_naive.__code__.co_names)
    shared = {
        "_reversed", "_runs_below", "_membership_flags", "discrepancy_series",
        "crt_frame", "count_residue_in_range", "v_ryb",
    }
    assert not names & shared


def test_cli_opens_files_for_writing_only_through_create_output():
    # truncating an existing output in place stalls on ext4 until the old
    # contents are written back; `_create_output` unlinks first
    tree = ast.parse(Path(inspect.getsourcefile(cli)).read_text())
    helper = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_create_output"
    )
    inside = {id(node) for node in ast.walk(helper)}
    writers = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call) or id(call) in inside:
            continue
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
        writes = any(
            not isinstance(m, ast.Constant) or set(str(m.value)) & set("wxa+")
            for m in modes
        )
        if name in ("write_text", "write_bytes") or name == "open" and writes:
            writers.append(call.lineno)
    assert not writers, f"cli.py writes a file at lines {writers}"
