"""The contract every reader of a pipeline data file shares, and the guard that keeps one reader."""

from __future__ import annotations

import ast
from collections import defaultdict
from collections.abc import Iterator
from pathlib import Path

import pytest

import opinionpulse
from opinionpulse.exceptions import InputError
from opinionpulse.filterkit import load_query
from opinionpulse.polarity import load_lexicon, read_scored_csv
from opinionpulse.stance.data import read_labeled_jsonl, read_labeled_tsv
from opinionpulse.timeseries import load_events, read_series_csv

LABELED = '{"created_at": "2020-03-01T1%d:00:00Z", "stance": "other"}\n'

# reader, the kind its missing-file message names, a file name and valid
# contents of at least three lines
READERS = {
    "load_lexicon": (load_lexicon, "lexicon", "lex.tsv", "goed\t0.5\nslecht\t-0.5\nprima\t0.8\n"),
    "read_scored_csv": (read_scored_csv, "scored CSV", "scored.csv",
                        "id,timestamp,value,hits\na,2020-03-01T10:00:00Z,0.5,1\n"
                        "b,2020-03-01T11:00:00Z,-0.5,1\n"),
    "read_labeled_tsv": (read_labeled_tsv, "label", "l.tsv",
                         "supports\tgoed\nrejects\tslecht\nother\tzon\n"),
    "read_labeled_jsonl": (read_labeled_jsonl, "labeled JSONL", "lab.jsonl",
                           "".join(LABELED % hour for hour in range(3))),
    "read_series_csv": (read_series_csv, "series", "series.csv",
                        "bucket,n\n2020-03-01,1\n2020-03-02,2\n"),
    "load_events": (load_events, "events", "events.json",
                    '[\n{"date": "2020-03-01", "label": "a"},\n'
                    '{"date": "2020-03-02", "label": "b"}\n]\n'),
    "load_query": (load_query, "query", "q.json", '{\n"name": "q",\n"keywords": ["corona"]\n}\n'),
}


def read(name, path):
    result = READERS[name][0](path)
    return list(result) if isinstance(result, Iterator) else result


@pytest.mark.parametrize("name", READERS)
def test_valid_file_is_read(name, tmp_path):
    # the premise of the tests below: only the planted fault makes a reader fail
    _, _, filename, text = READERS[name]
    path = tmp_path / filename
    path.write_text(text, encoding="utf-8")
    assert read(name, path)


@pytest.mark.parametrize("name", READERS)
def test_missing_file_is_an_input_error(name, tmp_path):
    kind = READERS[name][1]
    path = tmp_path / "absent" / READERS[name][2]
    with pytest.raises(InputError) as info:
        read(name, path)
    assert str(info.value) == f"{kind} file not found: {path}"


# a bare CR ends a line as LF does, so each line end counts the same lines
@pytest.mark.parametrize("lineno, end", [(1, b"\n"), (3, b"\n"), (1, b"\r\n"), (3, b"\r\n"),
                                         (1, b"\r"), (3, b"\r")],
                         ids=["1", "3", "1-CRLF", "3-CRLF", "1-CR", "3-CR"])
@pytest.mark.parametrize("name", READERS)
def test_byte_not_utf8_names_its_line(name, lineno, end, tmp_path):
    _, _, filename, text = READERS[name]
    lines = [line + end for line in text.encode("utf-8").splitlines()]
    lines[lineno - 1] = lines[lineno - 1][:-len(end)] + b"\xff" + end
    path = tmp_path / filename
    path.write_bytes(b"".join(lines))
    with pytest.raises(InputError) as info:
        read(name, path)
    assert str(info.value) == f"{filename}: not UTF-8 (byte 0xff), line {lineno}"


@pytest.mark.parametrize("name, fault, reason", [
    ("read_labeled_tsv", "supports but no tab", "expected label<TAB>text"),
    ("read_series_csv", "2020-03-09,x", "bad value 'x'"),
], ids=["label-tsv", "series-csv"])
def test_first_fault_in_line_order_is_reported(name, fault, reason, tmp_path):
    # a fault on line 3 comes before a byte that is not UTF-8 on line 50
    # within the same few kilobytes of the file
    _, _, filename, text = READERS[name]
    lines = text.encode("utf-8").splitlines(keepends=True)[:2] + [fault.encode() + b"\n"]
    lines += [lines[1]] * 46 + [b"\xff\n"]
    path = tmp_path / filename
    path.write_bytes(b"".join(lines))
    with pytest.raises(InputError) as info:
        read(name, path)
    assert str(info.value) == f"{filename}: {reason}, line 3"


@pytest.mark.parametrize("name, text, reason", [
    # a quoted id that holds a newline spans physical lines 1 and 2
    ("read_scored_csv", '"a\nb",2020-03-01T10:00:00Z,0.5,1\nc,2020-03-01T11:00:00Z,0.1,1\n'
                        "d,2020-03-01T12:00:00Z,x,1\n", "could not convert string to float: 'x'"),
    ("read_series_csv", 'bucket,n\n2020-03-01,"1\n"\n2020-03-02,x\n', "bad value 'x'"),
])
def test_csv_line_counts_physical_lines(name, text, reason, tmp_path):
    filename = READERS[name][2]
    path = tmp_path / filename
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError) as info:
        read(name, path)
    assert str(info.value) == f"{filename}: {reason}, line 4"


def test_csv_error_names_file_and_line(tmp_path):
    path = tmp_path / "scored.csv"
    path.write_text('id,timestamp,value,hits\n"a' + "x" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"^scored.csv: field larger than field limit \(\d+\), "
                                         r"line 2$"):
        read("read_scored_csv", path)


# JSON nested deeper than the decoder's recursion limit, on line 2 of the file
DEEP_JSON = {
    "read_labeled_jsonl": (LABELED % 0) + "[" * 100_000 + "\n",
    "load_events": '[\n{"date": "2020-03-01", "label": ' + "[" * 100_000 + "\n",
    "load_query": '{"name": "q",\n"keywords": ' + "[" * 100_000 + "]" * 100_000 + "\n}\n",
}


@pytest.mark.parametrize("name", DEEP_JSON)
def test_json_nested_too_deeply_names_file_and_line(name, tmp_path):
    filename = READERS[name][2]
    path = tmp_path / filename
    path.write_text(DEEP_JSON[name], encoding="utf-8")
    with pytest.raises(InputError) as info:
        read(name, path)
    assert str(info.value).startswith(f"{filename}: ")
    assert "nested too deeply" in str(info.value)
    assert str(info.value).endswith(", line 2")


@pytest.mark.parametrize("name", ["load_lexicon", "read_labeled_tsv"])
def test_crlf_line_ends_read_as_lf(name, tmp_path):
    _, _, filename, text = READERS[name]
    (tmp_path / "lf").mkdir()
    (tmp_path / "crlf").mkdir()
    lf, crlf = tmp_path / "lf" / filename, tmp_path / "crlf" / filename
    lf.write_text(text, encoding="utf-8")
    crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    assert read(name, crlf) == read(name, lf)


# (module, top-level function) pairs that may open a file for reading:
# the shared reader, the corpus reader, which counts and skips bad lines
# instead of stopping, and the binary model reader
READ_SITES = {("exceptions.py", "input_lines"), ("corpus.py", "ingest"),
              ("stance/model.py", "load_model")}


def _read_calls(tree):
    """(top-level function or None, line) of every call that opens a file for reading."""
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in ("read_text", "read_bytes"):
                yield name, node.lineno
            if called != "open":
                continue
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and set("wax") & set(str(mode.value))):
                yield name, node.lineno


def test_only_the_shared_reader_opens_data_files():
    package = Path(opinionpulse.__file__).parent
    sites = []
    for source in sorted(package.rglob("*.py")):
        module = source.relative_to(package).as_posix()
        for function, lineno in _read_calls(ast.parse(source.read_text(encoding="utf-8"))):
            if (module, function) not in READ_SITES:
                sites.append(f"{module}:{lineno} in {function}")
    assert sites == [], "read data files through exceptions.input_lines"


def test_guard_sees_a_read_mode_open():
    tree = ast.parse("def f(p):\n    return open(p, encoding='utf-8').read()\n"
                     "def g(p):\n    open(p, 'wb').close()\n"
                     "def h(p):\n    return p.read_text()\n")
    assert list(_read_calls(tree)) == [("f", 2), ("h", 6)]


def _reader_kinds(tree):
    """(kind, top-level function) of every input_lines or input_json call whose kind is a literal."""
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called not in ("input_lines", "input_json"):
                continue
            kind = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "kind"), None)
            if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
                yield kind.value, name


def _shared_kinds(trees):
    """Each kind of file that more than one top-level function reads, with those functions."""
    readers = defaultdict(set)
    for module, tree in trees.items():
        for kind, function in _reader_kinds(tree):
            readers[kind].add(f"{module}:{function}")
    return {kind: sorted(functions) for kind, functions in readers.items() if len(functions) > 1}


def test_each_kind_of_file_has_one_reader():
    package = Path(opinionpulse.__file__).parent
    trees = {source.relative_to(package).as_posix(): ast.parse(source.read_text(encoding="utf-8"))
             for source in sorted(package.rglob("*.py"))}
    kinds = {kind for tree in trees.values() for kind, _ in _reader_kinds(tree)}
    assert kinds >= {kind for _, kind, _, _ in READERS.values()}
    assert _shared_kinds(trees) == {}, "one reader per kind of file"


def test_guard_sees_a_second_reader_of_one_kind():
    first = ast.parse("def f(p):\n    with input_lines(p, 'label') as lines:\n"
                      "        return list(lines)\n"
                      "def g(p, kind):\n    return input_json(p, kind)\n")
    second = ast.parse("def h(p):\n    return exceptions.input_json(p, kind='label')\n")
    assert _shared_kinds({"a.py": first}) == {}
    assert _shared_kinds({"a.py": first, "b.py": second}) == {"label": ["a.py:f", "b.py:h"]}
