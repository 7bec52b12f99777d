import hashlib
import json
import os
import time

import pytest
from hypothesis import given, settings, strategies as st

import thetadim.cli as cli
import thetadim.verlinde as verlinde
from thetadim.cli import (MAX_ELEMENTS, DocumentError, document_to_query,
                          main, query_to_document)
from thetadim.modular import (MAX_DIGITS, MAX_TABLE_BITS, MAX_WORK,
                              magnitude_bound)
from thetadim.verlinde import EvaluationError, dimension, query
from thetadim.weights import ParabolicData


BARE_DOC = {"genus": 1, "rank": 2, "degree": 0, "level": 2, "points": []}
POINT_DOC = {"genus": 1, "rank": 3, "degree": 0, "level": 2,
             "points": [{"label": "p", "flag": [2, 1], "weights": [0, 1]}]}


def write_doc(tmp_path, doc, name="q.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- document layer --------------------------------------------------------

def test_document_round_trip():
    q, ctx = document_to_query(POINT_DOC)
    assert q.rank == 3 and q.omega.point("p").flag == (2, 1)
    assert ctx is None
    assert query_to_document(q) == POINT_DOC


def test_document_with_split_block():
    doc = dict(BARE_DOC)
    doc["split"] = {"g1": 1, "g2": 1, "I1": [], "c1": 1, "c2": 1}
    doc["genus"] = 2
    q, ctx = document_to_query(doc)
    assert ctx is not None and (ctx.g1, ctx.g2) == (1, 1)
    assert query_to_document(q, ctx) == doc


def test_document_rejects_unknown_fields():
    doc = dict(BARE_DOC, typo=1)
    with pytest.raises(DocumentError) as exc:
        document_to_query(doc)
    assert any("typo" in m for m in exc.value.messages)


def test_document_collects_multiple_errors():
    doc = {"genus": "x", "rank": 2, "degree": 0, "level": 2,
           "points": [{"label": "p", "flag": [2, 1], "weights": "bad"}]}
    with pytest.raises(DocumentError) as exc:
        document_to_query(doc)
    assert len(exc.value.messages) == 2


SPLIT_DOC = dict(BARE_DOC, genus=2,
                 split={"g1": 1, "g2": 1, "I1": [], "c1": 1, "c2": 1})


@pytest.mark.parametrize("doc, messages", [
    ([BARE_DOC], ["document: must be a JSON object"]),
    (dict(BARE_DOC, genus=True, level=None, points={}),
     ["genus: must be an integer", "level: must be an integer",
      "points: must be a list"]),
    ({"rank": 2, "typo": 1}, ["typo: unknown field", "genus: missing",
                              "degree: missing", "level: missing"]),
    (dict(BARE_DOC, points=[[], {"label": 1, "flag": [1, True],
                                 "weights": [0, "1"], "x": 0}, {}]),
     ["points[0]: must be an object", "points[1].x: unknown field",
      "points[1].label: must be a string",
      "points[1].flag: must be a list of integers",
      "points[1].weights: must be a list of integers",
      "points[2].label: missing", "points[2].flag: missing",
      "points[2].weights: missing"]),
    (dict(SPLIT_DOC, split=[]), ["split: must be an object"]),
    # a list's item error comes in the list's place among the fields
    (dict(SPLIT_DOC, split={"g1": 1.0, "I1": [1], "y": 0}),
     ["split.y: unknown field", "split.g1: must be an integer",
      "split.g2: missing", "split.I1: must be a list of point labels",
      "split.c1: missing", "split.c2: missing"]),
    # the split block is read only once the query builds
    (dict(SPLIT_DOC, genus="2", split=[]), ["genus: must be an integer"]),
], ids=["not-an-object", "field-types", "missing-and-unknown", "points",
        "split-not-an-object", "split-fields", "split-read-last"])
def test_document_field_messages(doc, messages):
    with pytest.raises(DocumentError) as exc:
        document_to_query(doc)
    assert exc.value.messages == messages


def test_document_rejects_mismatched_point_shape():
    doc = {"genus": 1, "rank": 2, "degree": 0, "level": 2,
           "points": [{"label": "p", "flag": [1, 1], "weights": [0]}]}
    with pytest.raises(DocumentError):
        document_to_query(doc)


# -- dim -------------------------------------------------------------------

def test_dim_human_output(tmp_path, capsys):
    rc = main(["dim", write_doc(tmp_path, BARE_DOC)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "value: 3" in out
    assert "ell integral: yes" in out


def test_dim_json_output(tmp_path, capsys):
    rc = main(["dim", write_doc(tmp_path, BARE_DOC), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 3
    assert payload["cache"] == "computed"


def test_dim_invalid_document(tmp_path, capsys):
    # a point with an empty label or empty flag and weights is refused, not
    # dropped; a repeated key, at the top or inside a point, is refused, not
    # read as its last value (the genus-3 value 36 once printed here)
    repeated = json.dumps(BARE_DOC)[:-1] + ', "genus": 3}'
    in_point = ('{"genus": 1, "rank": 3, "degree": 0, "level": 2, "points": '
                '[{"label": "p", "flag": [2, 1], "weights": [0, 1], '
                '"weights": [0, 2]}]}')
    # the repeated key among 50,000 must be found in linear time
    many_keys = "".join(f'"k{i}": 0, ' for i in range(50000)) + repeated[1:]
    for doc, duplicate in (
            ({"genus": 1}, None),
            (dict(BARE_DOC, points=[{"label": "", "flag": [2],
                                     "weights": [0]}]), None),
            (dict(BARE_DOC, points=[{"label": "p", "flag": [],
                                     "weights": []}]), None),
            (repeated, "genus"), (in_point, "weights"),
            ("{" + many_keys, "genus")):
        path = tmp_path / "q.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        start = time.perf_counter()
        rc = main(["dim", str(path)])
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "error:" in captured.err
        if duplicate:
            assert captured.err == \
                f"error: document: duplicate key {duplicate!r}\n"


def test_dim_cache_dir_that_is_a_file_is_an_input_error(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.delenv("THETADIM_CACHE", raising=False)
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    doc = write_doc(tmp_path, BARE_DOC)

    def evaluated(q):  # the directory must be refused before the work
        pytest.fail("the closed sum was evaluated")

    monkeypatch.setattr(cli, "dimension", evaluated)
    assert main(["dim", doc, "--cache-dir", str(not_a_dir)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error: --cache-dir: ")
    # the environment variable is named when it set the directory
    monkeypatch.setenv("THETADIM_CACHE", str(not_a_dir))
    assert main(["dim", doc]) == 2
    assert capsys.readouterr().err.startswith("error: THETADIM_CACHE: ")


def test_repeated_main_calls_are_independent(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("THETADIM_CACHE", raising=False)
    doc = write_doc(tmp_path, BARE_DOC)
    assert main(["dim", doc, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["cache"] == "computed"
    assert main(["dim", doc]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "value: 3"
    cache = tmp_path / "cache"
    assert main(["dim", doc, "--cache-dir", str(cache)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "cache: miss"
    before = sorted(cache.rglob("*"))
    other = write_doc(tmp_path, POINT_DOC, "other.json")
    for argv in (["dim", other, "--no-cache"], ["dim", other]):
        assert main(argv) == 0
        assert "cache:" not in capsys.readouterr().out
    assert sorted(cache.rglob("*")) == before
    # across commands: verify's --json reaches neither enumerate nor the
    # next dim, which prints text and files nothing under the old --cache-dir
    assert main(["verify", "genus", "--rank-max", "2", "--level-max", "2",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["suites"] == {"genus": 36}
    assert main(["enumerate", "pk", "-r", "2", "-k", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 0", "1 0", "1 1",
                                                    "count: 3"]
    assert main(["dim", doc]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "value: 3" and "cache:" not in out
    assert sorted(cache.rglob("*")) == before


def test_dim_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["dim", str(path)]) == 2


def test_dim_missing_file(capsys):
    assert main(["dim", "/nonexistent/q.json"]) == 2


# bytes that are not UTF-8, nesting past the parser's recursion limit, and
# an integer past Python's 4,300-digit limit on int(): input errors, not
# internal ones
UNDECODABLE = [b"\xff\xfe{bad", b"[" * 100000,
               b'{"genus": 1' + b"0" * 5000 + b', "rank": 2, "degree": 0, '
               b'"level": 2}']


@pytest.mark.parametrize("content", UNDECODABLE,
                         ids=["not-utf8", "deep-nesting", "long-integer"])
def test_undecodable_document_is_an_input_error(tmp_path, capsys, content):
    path = tmp_path / "q.json"
    path.write_bytes(content)
    assert main(["dim", str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: invalid JSON")


def test_dim_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def boom(q):
        raise EvaluationError("forced failure")
    monkeypatch.setattr(cli, "dimension", boom)
    rc = main(["dim", write_doc(tmp_path, BARE_DOC)])
    assert rc == 3
    assert "internal error" in capsys.readouterr().err


def test_dim_float_refuses_beyond_its_error_bound(tmp_path, capsys):
    # float rounding once printed 36436622194474984 here, with exit 0; dim
    # prints the exact value
    doc = write_doc(tmp_path, {"genus": 5, "rank": 3, "degree": 0,
                               "level": 8})
    assert main(["dim", doc, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 36436622194475008


def test_unexpected_exception_exits_internal(tmp_path, capsys, monkeypatch):
    def boom(q):
        raise RuntimeError("unforeseen")
    monkeypatch.setattr(cli, "dimension", boom)
    rc = main(["dim", write_doc(tmp_path, BARE_DOC)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["internal error: RuntimeError: unforeseen"]


# -- oversized queries ------------------------------------------------------

def _one_point(flag):
    return [{"label": "p", "flag": flag, "weights": [0, 1]}]


@pytest.mark.parametrize("doc, bound", [
    ({"genus": 100000, "rank": 2, "degree": 0, "level": 2}, None),
    ({"genus": 10 ** 400, "rank": 2, "degree": 0, "level": 2}, None),
    ({"genus": 2, "rank": 2000, "degree": 0, "level": 1,
      "points": _one_point([1, 1999])}, "is 10**10797952.5,"),
    ({"genus": 2, "rank": 10 ** 6, "degree": 0, "level": 10 ** 6}, None),
    ({"genus": 2, "rank": 2000, "degree": 0, "level": 2000,
      "points": [{"label": "p", "flag": [1] * 2000,
                  "weights": list(range(2000))}]},
     "is at least 10**12002406.0,"),
], ids=["100000", str(10 ** 400), "rank-2000-one-point", "rank-level-1000000",
        "rank-2000-many-blocks"])
def test_oversized_query_is_refused_before_the_work(tmp_path, capsys, doc,
                                                    bound):
    # at genus 100000 the bound has 90,309 digits: the query once ran for
    # 15 s and then failed to print its value with exit 3; the size check
    # once built dim V_lam at rank 2000 for more than 60 s, C(n-1, r-1)
    # and n**(r-1) at rank = level = 10**6 for 36 s, and the logarithm of
    # dim V_lam of 2,000 one-row blocks in 2 10**6 lgamma calls for 1.4 s;
    # it now stops after the first block's share, so it prints a lower
    # bound (the whole bound is 10**12604164.7), while the one-point
    # query's sum runs to its last share and prints the bound itself
    start = time.monotonic()
    rc = main(["dim", write_doc(tmp_path, doc), "--json"])
    assert time.monotonic() - start < 1.0
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: query too large") and str(MAX_DIGITS) in err
    if bound is not None:
        assert err == (f"error: query too large: the bound on its value "
                       f"{bound} more than {MAX_DIGITS} digits\n")


def test_table_refuses_an_oversized_cell(capsys):
    rc = main(["table", "--genus", "100000", "--rank", "2", "--level", "2"])
    assert rc == 2
    assert "query too large" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"genus": 1, "rank": 1, "degree": 0, "level": 1162261466},
    {"genus": 40, "rank": 1, "degree": 0, "level": 3000000},
    {"genus": 1, "rank": 600, "degree": 0, "level": 1,
     "points": _one_point([300, 300])},
], ids=["1162261466-1", "3000000-40", "rank-600-one-point"])
def test_oversized_power_table_is_refused_before_the_work(tmp_path, capsys,
                                                          doc):
    # a rank-1 query builds a table of N = level + 1 powers mod M: at level
    # 1,162,261,466 it ran out of memory (exit 3), and at level 3,000,000
    # and genus 40 it took 16 s and 613 MB to print level**genus; at rank
    # 600 the size check once took 8.7 s to build dim V_lam = C(600, 300)
    start = time.monotonic()
    rc = main(["dim", write_doc(tmp_path, doc), "--json"])
    assert time.monotonic() - start < 1.0
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: query too large")
    assert str(MAX_TABLE_BITS) in err


@pytest.mark.parametrize("doc", [
    {"genus": 1, "rank": 50, "degree": 0, "level": 50},
], ids=["rank-level-50"])
def test_oversized_sum_is_refused_before_the_work(tmp_path, capsys, doc):
    # at rank = level = 50 the bound has 29 digits and the power table
    # 1.1 10**6 bits, but the sum runs over C(99, 49) = 5 10**28 v-vectors:
    # the query once ran past a 15 s timeout
    start = time.monotonic()
    rc = main(["dim", write_doc(tmp_path, doc), "--json"])
    assert time.monotonic() - start < 1.0
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: query too large") and str(MAX_WORK) in err


def test_power_table_inside_its_limit_prints_its_value(tmp_path, capsys):
    doc = {"genus": 2, "rank": 1, "degree": 0, "level": 100000}
    rc = main(["dim", write_doc(tmp_path, doc), "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["value"] == 100000 ** 2


def test_query_just_inside_the_digit_limit_prints_its_value(tmp_path, capsys):
    # at r = k = 2 the bound is 3 * 8**(g - 1): 4,300 digits at g = 4761,
    # 4,301 at g = 4762; the value is 2**(g - 1) * (2**g + 1)
    g = 4761
    inside, outside = (query(h, 0, ParabolicData(2, 2)) for h in (g, g + 1))
    assert magnitude_bound(inside.canonical_key()) < 10 ** MAX_DIGITS
    assert magnitude_bound(outside.canonical_key()) >= 10 ** MAX_DIGITS
    doc = {"genus": g, "rank": 2, "degree": 0, "level": 2}
    rc = main(["dim", write_doc(tmp_path, doc), "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["value"] == \
        2 ** (g - 1) * (2 ** g + 1)
    rc = main(["dim", write_doc(tmp_path, dict(doc, genus=g + 1)), "--json"])
    assert rc == 2


# -- cache -----------------------------------------------------------------

def test_cache_miss_then_hit(tmp_path, capsys):
    doc = write_doc(tmp_path, BARE_DOC)
    cache = str(tmp_path / "cache")
    rc = main(["dim", doc, "--cache-dir", cache, "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["cache"] == "miss"
    rc = main(["dim", doc, "--cache-dir", cache, "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cache"] == "hit"
    assert payload["value"] == 3


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    doc = write_doc(tmp_path, BARE_DOC)
    monkeypatch.setenv(cli.ENV_CACHE, str(tmp_path / "envcache"))
    main(["dim", doc, "--json"])
    assert json.loads(capsys.readouterr().out)["cache"] == "miss"
    main(["dim", doc, "--json"])
    assert json.loads(capsys.readouterr().out)["cache"] == "hit"


def test_cache_disabled_flag(tmp_path, capsys):
    doc = write_doc(tmp_path, BARE_DOC)
    cache = str(tmp_path / "cache")
    main(["dim", doc, "--cache-dir", cache, "--json"])
    capsys.readouterr()
    main(["dim", doc, "--cache-dir", cache, "--no-cache", "--json"])
    assert json.loads(capsys.readouterr().out)["cache"] == "computed"


def test_corrupt_cache_entry_is_recomputed(tmp_path, capsys):
    doc = write_doc(tmp_path, BARE_DOC)
    cache = tmp_path / "cache"
    main(["dim", doc, "--cache-dir", str(cache), "--json"])
    capsys.readouterr()
    long_value = b'{"value": 1' + b"0" * 5000 + b"}"
    for content in [b"{broken", *UNDECODABLE[:2], long_value]:
        for f in cache.rglob("*.json"):
            f.write_bytes(content)
        for expected in ("miss", "hit"):
            rc = main(["dim", doc, "--cache-dir", str(cache), "--json"])
            assert rc == 0, content[:20]
            payload = json.loads(capsys.readouterr().out)
            assert (payload["value"], payload["cache"]) == (3, expected)


@pytest.mark.parametrize("edit", [
    lambda rec: rec.update(value=999),
    lambda rec: rec.pop("value"),
    lambda rec: rec.pop("query_key"),
    lambda rec: rec.pop("digest"),
    lambda rec: rec.update(digest="0" * 64),
], ids=["value-edited", "value-missing", "field-missing", "digest-missing",
        "digest-wrong"])
def test_bad_cache_record_is_recomputed(tmp_path, capsys, edit):
    doc = write_doc(tmp_path, BARE_DOC)
    cache = tmp_path / "cache"
    main(["dim", doc, "--cache-dir", str(cache), "--json"])
    capsys.readouterr()
    for f in cache.rglob("*.json"):
        record = json.loads(f.read_text())
        edit(record)
        f.write_text(json.dumps(record, sort_keys=True))
    rc = main(["dim", doc, "--cache-dir", str(cache), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["value"], payload["cache"]) == (3, "miss")
    main(["dim", doc, "--cache-dir", str(cache), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert (payload["value"], payload["cache"]) == (3, "hit")


@pytest.mark.parametrize("value", [-1, "3", True, 3.0, None])
def test_cache_record_value_must_be_nonnegative_int(tmp_path, value):
    # a record with a matching digest is still refused for a bad value
    key = cli.query_key(document_to_query(BARE_DOC)[0])
    cache = str(tmp_path / "cache")
    cli.cache_put(cache, key, value)
    assert cli.cache_get(cache, key) is None


def test_record_with_the_old_flag_fields_is_a_hit(tmp_path, capsys):
    # records once carried ell_integral and exceptional_case as well; with a
    # matching digest they still read as hits and the flags come from the query
    q, _ = document_to_query(BARE_DOC)
    key = cli.query_key(q)
    record = {"value": 3, "ell_integral": True, "exceptional_case": False,
              "version": cli.__version__, "query_key": key}
    record["digest"] = hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()).hexdigest()
    name = hashlib.sha256(key.encode()).hexdigest()
    cache = tmp_path / "cache"
    (cache / name[:2]).mkdir(parents=True)
    (cache / name[:2] / f"{name}.json").write_text(json.dumps(record))
    assert main(["dim", write_doc(tmp_path, BARE_DOC), "--cache-dir",
                 str(cache), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "value": 3, "ell_integral": True, "exceptional_case": False,
        "cache": "hit"}


def test_dim_builds_the_query_key_once_per_lookup(tmp_path, capsys,
                                                  monkeypatch):
    # the cache key is built once and passed on as a string; `dimension`
    # builds its own, so a miss builds two, a hit one and --no-cache one
    monkeypatch.delenv("THETADIM_CACHE", raising=False)
    real, built = verlinde.VerlindeQuery.canonical_key, []
    monkeypatch.setattr(verlinde.VerlindeQuery, "canonical_key",
                        lambda q: built.append(q) or real(q))
    doc, cache = write_doc(tmp_path, POINT_DOC), str(tmp_path / "cache")
    for extra, expected, count in (([], "miss", 2), ([], "hit", 1),
                                   (["--no-cache"], "computed", 1)):
        built.clear()
        assert main(["dim", doc, "--cache-dir", cache, "--json", *extra]) == 0
        assert json.loads(capsys.readouterr().out)["cache"] == expected
        assert len(built) == count


def test_another_spelling_hits_the_record(tmp_path, capsys, monkeypatch):
    # relabeled, reordered, each point shifted by one full column and padded
    # with a one-block point: the same canonical key, so the same record
    monkeypatch.delenv("THETADIM_CACHE", raising=False)
    first = {"genus": 1, "rank": 3, "degree": 1, "level": 4, "points": [
        {"label": "p", "flag": [2, 1], "weights": [0, 1]},
        {"label": "q", "flag": [1, 2], "weights": [0, 2]}]}
    other = dict(first, points=[
        {"label": "b", "flag": [1, 2], "weights": [1, 3]},
        {"label": "z", "flag": [3], "weights": [2]},
        {"label": "a", "flag": [2, 1], "weights": [1, 2]}])
    cache = tmp_path / "cache"
    for doc, name, expected in ((first, "first.json", "miss"),
                                (other, "other.json", "hit")):
        assert main(["dim", write_doc(tmp_path, doc, name), "--cache-dir",
                     str(cache), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["value"], payload["cache"]) == (24, expected)
    assert len(list(cache.rglob("*.json"))) == 1


THREE_POINTS = [{"label": l, "flag": [1, 1], "weights": [0, 2]}
                for l in ("p", "q", "s")]


@pytest.mark.parametrize("doc, flags", [
    ({"genus": 0, "rank": 2, "degree": 0, "level": 4,
      "points": THREE_POINTS}, (True, True)),
    ({"genus": 1, "rank": 2, "degree": 1, "level": 3}, (False, False)),
], ids=["exceptional", "ell-not-integral"])
def test_hit_miss_and_computed_payloads_agree(tmp_path, capsys, doc, flags):
    path = write_doc(tmp_path, doc)
    cache = str(tmp_path / "cache")
    payloads = []
    for extra in (["--no-cache"], [], []):
        assert main(["dim", path, "--cache-dir", cache, "--json"] + extra) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    assert [p.pop("cache") for p in payloads] == ["computed", "miss", "hit"]
    assert payloads[0] == payloads[1] == payloads[2]
    assert (payloads[0]["ell_integral"],
            payloads[0]["exceptional_case"]) == flags


# -- verify ----------------------------------------------------------------

SMALL = ["--rank-max", "2", "--level-max", "2", "--pair-level-max", "2",
         "--genus-max", "2", "--samples", "1"]


def test_verify_identities(capsys):
    rc = main(["verify", "identities"] + SMALL)
    out = capsys.readouterr().out
    assert rc == 0
    assert "suite identities:" in out and "ok" in out


def test_verify_genus_json(capsys):
    rc = main(["verify", "genus", "--json"] + SMALL)
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["suites"]["genus"] > 0
    assert payload["failures"] == []


def test_verify_all_suites(capsys):
    rc = main(["verify", "all"] + SMALL)
    out = capsys.readouterr().out
    assert rc == 0
    for suite in ("identities", "genus", "split", "wprime", "hecke",
                  "backend"):
        assert f"suite {suite}:" in out


SUITE_COUNTS = {"identities": 135, "genus": 108, "split": 19, "wprime": 19,
                "hecke": 139, "backend": 108}


# the `dimension` memo's hits and misses per suite of `verify all`, which
# shares one memo across its suites in table order
MEMO_COUNTS = {"identities": (0, 0), "genus": (382, 152), "split": (66, 21),
               "wprime": (74, 13), "hecke": (200, 78), "backend": (108, 0)}


def _pop_seconds(payload, names):
    """Remove and check the per-suite wall seconds, the one key of
    `verify --json` that is not deterministic."""
    seconds = payload.pop("seconds")
    assert list(seconds) == sorted(names)
    assert all(type(s) is float and s >= 0 for s in seconds.values())


def test_verify_all_defaults_are_pinned(capsys):
    # a table entry that drops, duplicates or reorders checks changes these
    assert main(["verify", "all", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    _pop_seconds(payload, SUITE_COUNTS)
    assert payload == {
        "suites": SUITE_COUNTS, "failures": [], "ok": True,
        "memo": {name: {"hits": h, "misses": m}
                 for name, (h, m) in MEMO_COUNTS.items()}}
    assert main(["verify", "all"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"suite {name}: {n} checks ok" for name, n in SUITE_COUNTS.items()]


def test_a_suite_is_one_table_entry(capsys, monkeypatch):
    failure = {"check": "fake", "mode": "fake", "lhs": 1, "rhs": 2,
               "document": None}
    monkeypatch.setitem(cli.SUITES, "fake", lambda args: [lambda: None] * 2)
    assert main(["verify", "fake", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    _pop_seconds(payload, ["fake"])
    assert payload == {"suites": {"fake": 2}, "failures": [], "ok": True,
                       "memo": {"fake": {"hits": 0, "misses": 0}}}
    monkeypatch.setitem(cli.SUITES, "fake",
                        lambda args: [lambda: None, lambda: failure])
    assert main(["verify", "all"] + SMALL) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[:7]] == [
        f"suite {name}" for name in [*SUITE_COUNTS, "fake"]]
    assert out[6] == "suite fake: 2 checks FAILED"
    assert out[7:] == ["FAIL fake: lhs=1 rhs=2"]
    monkeypatch.setitem(cli.SUITES, "fake", lambda args: [])
    assert main(["verify", "fake"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: suite fake ran no checks\n"


@pytest.mark.parametrize("argv, suite", [
    (["--genus-max", "1", "--rank-max", "4", "--level-max", "4"], "split"),
    (["--samples", "0"], "hecke"),
])
def test_empty_suite_is_refused_before_any_check(capsys, monkeypatch, argv,
                                                 suite):
    def never(*args, **kwargs):
        raise AssertionError("a check ran")

    # cli binds the identity checks by name; every other suite evaluates
    # verlinde.dimension first
    for name in ("identity_52_check", "identity_53_check",
                 "identity_54_check"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(verlinde, "dimension", never)
    rc = main(["verify", "all"] + argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines() == [f"error: suite {suite} ran no checks"]


def test_split_suites_cover_every_rank(capsys):
    counts = []
    for rank_max in ("1", "2", "4"):
        for suite in ("split", "wprime"):
            rc = main(["verify", suite, "--json", "--rank-max", rank_max,
                       "--level-max", "3", "--genus-max", "3"])
            payload = json.loads(capsys.readouterr().out)
            assert rc == 0 and payload["ok"]
            counts.append(payload["suites"][suite])
    assert 0 < counts[0] == counts[1] < counts[2] == counts[3] < counts[4]
    assert counts[4] == counts[5]


def test_verify_flags_broken_formula(capsys, monkeypatch):
    # sabotage the recurrence and expect the harness to catch it
    real = verlinde.genus_recurrence_rhs

    def wrong(q):
        return real(q) + 1

    monkeypatch.setattr(verlinde, "genus_recurrence_rhs", wrong)
    rc = main(["verify", "genus"] + SMALL)
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAILED" in out
    assert "counterexample document:" in out
    # the printed document reproduces the failing query exactly
    line = next(l for l in out.splitlines()
                if l.startswith("counterexample document:"))
    doc = json.loads(line.split(":", 1)[1])
    q, _ = document_to_query(doc)
    assert query_to_document(q) == doc


def test_verify_broken_backend_detected(capsys, monkeypatch):
    real = verlinde.closed_formula_float

    def off_by_one(q):
        value, residual, bound = real(q)
        return value + 1, residual, bound

    monkeypatch.setattr(verlinde, "closed_formula_float", off_by_one)
    rc = main(["verify", "backend"] + SMALL)
    assert rc == 1


def test_verify_backend_holds_the_float_to_its_bound(capsys, monkeypatch):
    # 1e-7 more residual is within a fixed 1e-6 tolerance, but not within
    # the error bound the float path proves on the default grid
    real = verlinde.closed_formula_float

    def looser(q):
        value, residual, bound = real(q)
        return value, residual + 1e-7, bound

    monkeypatch.setattr(verlinde, "closed_formula_float", looser)
    assert main(["verify", "backend"]) == 1


GENUS_600 = ["--genus-min", "600", "--genus-max", "600", "--rank-max", "2",
             "--level-max", "2", "--samples", "0"]


def test_float_out_of_range_is_a_refusal_not_a_crash(capsys):
    assert main(["verify", "backend"] + GENUS_600) == 0
    assert capsys.readouterr().out == "suite backend: 6 checks ok\n"


def test_exact_residuals_stay_integers(capsys, monkeypatch):
    # a wrong recurrence at values beyond any float fails with exit 1 and a
    # counterexample document, in both output forms
    monkeypatch.setattr(verlinde, "genus_recurrence_rhs", lambda q: 0)
    assert main(["verify", "genus"] + GENUS_600) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out and "counterexample document:" in out
    assert main(["verify", "genus", "--json"] + GENUS_600) == 1
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert failures and all(type(f["residual"]) is int
                            and f["residual"] == f["lhs"] for f in failures)
    assert max(f["residual"] for f in failures) > 2 ** 1024


# -- enumerate -------------------------------------------------------------

def test_enumerate_pk(capsys):
    rc = main(["enumerate", "pk", "-r", "2", "-k", "2"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out == ["0 0", "1 0", "1 1", "count: 3"]


def test_enumerate_wk_json(capsys):
    rc = main(["enumerate", "wk", "-r", "2", "-k", "2", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["elements"] == [[0, 0], [1, 0], [2, 0]]
    assert payload["count"] == 3


def test_enumerate_wkprime(capsys):
    rc = main(["enumerate", "wkprime", "-r", "2", "-k", "2", "--offset", "1"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out == ["1 0", "count: 1"]


def test_enumerate_qk(capsys):
    rc = main(["enumerate", "qk", "-r", "2", "-k", "2", "--n1=-1"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out == ["0 0", "1 1", "count: 2"]


@pytest.mark.parametrize("n1", ["abc", "1/0"])
def test_enumerate_qk_bad_n1(capsys, n1):
    rc = main(["enumerate", "qk", "-r", "2", "-k", "2", "--n1", n1])
    assert rc == 2
    assert "error: --n1" in capsys.readouterr().err


def test_enumerate_vvec(capsys):
    rc = main(["enumerate", "vvec", "-r", "2", "-k", "2"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out == ["1 0", "2 0", "3 0", "count: 3"]


@pytest.mark.parametrize("name", ["pk", "wk", "wkprime", "qk", "vvec"])
def test_enumerate_refuses_an_oversized_set_before_the_work(capsys, name):
    # each size is read from a binomial coefficient, C(59, 29) ~ 5.9e16
    # v-vectors at r = k = 30, so nothing is enumerated before the refusal
    start = time.perf_counter()
    assert main(["enumerate", name, "-r", "30", "-k", "30", "--json"]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {name}: more than {MAX_ELEMENTS} "
                            f"elements at rank 30 and level 30\n")


def test_enumerate_lists_a_set_of_a_rank_beyond_the_recursion_limit(capsys):
    # the weights are generated without recursion, so a rank above
    # sys.getrecursionlimit() lists its few elements
    for argv, count in ((["pk", "-r", "2000"], 1),
                        (["wk", "-r", "1500"], 1500),
                        (["qk", "-r", "1200", "--n1", "0"], 1),
                        (["wkprime", "-r", "1200"], 1)):
        assert main(["enumerate", *argv, "-k", "1"]) == 0, argv
        assert capsys.readouterr().out.endswith(f"count: {count}\n"), argv


def test_enumerate_lists_a_set_of_exactly_the_limit(capsys):
    # C(k, 1) = k weights of P_k at rank 1
    argv = ["enumerate", "pk", "-r", "1", "-k"]
    assert main([*argv, str(MAX_ELEMENTS)]) == 0
    assert capsys.readouterr().out.endswith(f"count: {MAX_ELEMENTS}\n")
    assert main([*argv, str(MAX_ELEMENTS + 1)]) == 2
    assert "more than" in capsys.readouterr().err


# -- table -----------------------------------------------------------------

def test_table_values(capsys):
    rc = main(["table", "--genus", "1:2", "--rank", "2", "--level", "1:2"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "g,r,k,d,points,value,ell_integral"
    rows = {tuple(l.split(",")[:4]): l.split(",")[5] for l in lines[1:]}
    assert rows[("1", "2", "2", "0")] == "3"
    assert rows[("2", "2", "2", "0")] == "10"
    for (g, r, k, d), val in rows.items():
        expect = dimension(query(int(g), int(d),
                                 ParabolicData(int(r), int(k))))
        assert int(val) == expect


def test_table_is_deterministic(capsys):
    args = ["table", "--genus", "1:2", "--rank", "2:3", "--level", "1:2",
            "--degree", "0:1"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


def test_table_cost_guard(capsys):
    args = ["table", "--genus", "1", "--rank", "4", "--level", "8",
            "--limit", "10"]
    rc = main(args)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: estimated term count")
    assert "exceeds the limit" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["--genus", "0:1000000000000", "--rank", "1", "--level", "1"],
    ["--genus", "1", "--rank", "1:1000000000", "--level", "1:1000000000"],
    ["--genus", "1", "--rank", "1000000", "--level", "1000000"],
], ids=["many-genera", "many-ranks-and-levels", "one-huge-binomial"])
def test_table_cost_guard_refuses_before_building(capsys, argv):
    # the estimate stops once it passes the limit, and no cell is built
    # before the guard: a list of these cells would not fit in memory
    start = time.perf_counter()
    assert main(["table", *argv]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: estimated term count")
    assert "exceeds the limit 20000" in captured.err


def test_table_force_overrides_guard(capsys):
    # a raised --limit forces a run that a lower one refuses
    argv = ["table", "--genus", "1", "--rank", "2", "--level", "2"]
    assert main([*argv, "--limit", "1"]) == 2
    assert "raise --limit to run anyway" in capsys.readouterr().err
    assert main([*argv, "--limit", "3"]) == 0      # C(3, 1) = 3 terms
    assert "g,r,k,d" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "backend", "--tol", "1e-3"],
    ["table", "--genus", "1", "--rank", "2", "--level", "2", "--force"],
])
def test_removed_options_are_unrecognized(capsys, argv):
    # the backend tolerance is fixed, and --limit alone bounds a table
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_table_bad_range(capsys):
    rc = main(["table", "--genus", "x:y", "--rank", "2", "--level", "2"])
    assert rc == 2


# -- out-of-range integers -------------------------------------------------

@pytest.mark.parametrize("argv, option", [
    (["enumerate", "pk", "-r", "-1", "-k", "2"], "--rank"),
    (["enumerate", "wk", "-r", "2", "-k", "0"], "--level"),
    (["enumerate", "vvec", "-r", "0", "-k", "2"], "--rank"),
    (["enumerate", "qk", "-r", "2", "-k", "0"], "--level"),
    (["table", "--genus", "-1", "--rank", "2", "--level", "2"], "--genus"),
    (["table", "--genus", "1", "--rank", "0:2", "--level", "2"], "--rank"),
    (["table", "--genus", "1", "--rank", "2", "--level", "0"], "--level"),
    (["verify", "genus", "--genus-min", "-2"], "--genus-min"),
    (["verify", "split", "--genus-max", "-1"], "--genus-max"),
    (["verify", "identities", "--rank-max", "0"], "--rank-max"),
    (["verify", "backend", "--level-max", "-3"], "--level-max"),
    (["verify", "hecke", "--rank-max", "2", "--level-max", "2",
      "--samples", "-1"], "--samples"),
    (["verify", "identities", "--pair-level-max", "-5"], "--pair-level-max"),
    (["verify", "hecke", "--rank-max", "2", "--level-max", "2",
      "--samples", "0"], "suite hecke"),
    (["verify", "split", "--genus-max", "1"], "suite split"),
    (["verify", "genus", "--genus-min", "3", "--genus-max", "2"],
     "suite genus"),
    (["verify", "genus", "--genus-max", "-1"], "--genus-max"),
    (["table", "--genus", "1", "--rank", "2", "--level", "0:3"], "--level"),
    (["table", "--genus", "1", "--rank", "2", "--level", "2",
      "--limit", "-1"], "--limit"),
])
def test_out_of_range_integers_are_input_errors(capsys, argv, option):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    expected = (f"error: {option} ran no checks" if option.startswith("suite ")
                else f"error: {option}:")
    assert len(lines) == 1 and lines[0].startswith(expected)


# -- hecke -----------------------------------------------------------------

def test_hecke_transform(tmp_path, capsys):
    doc = {"genus": 1, "rank": 3, "degree": 1, "level": 2,
           "points": [{"label": "p", "flag": [2, 1], "weights": [0, 1]}]}
    rc = main(["hecke", write_doc(tmp_path, doc), "--point", "p", "-m", "1",
               "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degree_shift"] == -1
    out_doc = payload["document"]
    assert out_doc["degree"] == 0
    assert out_doc["points"][0]["flag"] == [1, 1, 1]
    assert out_doc["points"][0]["weights"] == [0, 1, 2]
    # the move preserves the dimension
    q_in, _ = document_to_query(doc)
    q_out, _ = document_to_query(out_doc)
    assert dimension(q_in) == dimension(q_out)


def test_hecke_default_multiplicity(tmp_path, capsys):
    doc = {"genus": 1, "rank": 3, "degree": 0, "level": 2,
           "points": [{"label": "p", "flag": [2, 1], "weights": [0, 1]}]}
    rc = main(["hecke", write_doc(tmp_path, doc), "--point", "p", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["degree_shift"] == -2


def test_hecke_human_output_streams(tmp_path, capsys):
    doc = {"genus": 1, "rank": 2, "degree": 0, "level": 2,
           "points": [{"label": "p", "flag": [1, 1], "weights": [0, 1]}]}
    rc = main(["hecke", write_doc(tmp_path, doc), "--point", "p", "-m", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    json.loads(captured.out)                 # stdout carries only the document
    assert "degree shift: -1" in captured.err


def test_hecke_unknown_point(tmp_path, capsys):
    rc = main(["hecke", write_doc(tmp_path, POINT_DOC), "--point", "zz"])
    assert rc == 2
    assert capsys.readouterr().err == "error: no point labelled 'zz'\n"


def test_hecke_illegal_multiplicity(tmp_path, capsys):
    rc = main(["hecke", write_doc(tmp_path, POINT_DOC), "--point", "p",
               "-m", "5"])
    assert rc == 2


# -- fuzzing the input layer -----------------------------------------------

FIELDS = ["genus", "rank", "degree", "level", "points", "split", "label",
          "flag", "weights", "g1", "g2", "I1", "c1", "c2", "typo"]
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 6),
              st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from(["", "p", "q"])),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(FIELDS), inner, max_size=4),
    max_leaves=10)
def shaped(field):
    """Values with the document's fields, each drawn by field(strategy)."""
    ints = field(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    point = st.fixed_dictionaries(
        {"label": field(st.sampled_from(["p", "q"])), "flag": ints,
         "weights": ints})
    split = st.fixed_dictionaries(
        {key: field(st.integers(0, 2)) for key in ("g1", "g2", "c1", "c2")},
        optional={"I1": field(st.lists(st.sampled_from(["p", "q"]),
                                       max_size=2))})
    return st.fixed_dictionaries(
        {"genus": field(st.integers(0, 3)), "rank": field(st.integers(1, 3)),
         "degree": field(st.integers(-1, 3)),
         "level": field(st.integers(1, 3))},
        optional={"points": field(st.lists(field(point), max_size=2)),
                  "split": field(split)})


# document-shaped values: any JSON value, the document's fields each of its
# kind, or those fields each holding any JSON value now and then
documents = (json_values | shaped(lambda s: s)
             | shaped(lambda s: s | json_values))


@settings(max_examples=120, deadline=None)
@given(documents)
def test_fuzz_document_to_query(doc):
    try:
        q, ctx = document_to_query(doc)
    except DocumentError as exc:
        assert exc.messages and all(isinstance(m, str) for m in exc.messages)
        return
    again = query_to_document(q, ctx)
    assert query_to_document(*document_to_query(again)) == again


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=80)
       | documents.map(lambda doc: json.dumps(doc).encode()))
def test_fuzz_load_document(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_bytes(content)
    try:
        cli.load_document(str(path))
    except DocumentError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=80)
       | json_values.map(lambda record: json.dumps(record).encode()))
def test_fuzz_cache_record_is_a_miss(tmp_path_factory, content):
    key = cli.query_key(document_to_query(BARE_DOC)[0])
    cache = str(tmp_path_factory.getbasetemp() / "fuzz-cache")
    path = cli._cache_path(cache, key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(content)
    assert cli.cache_get(cache, key) is None
