"""Identifier splitting, extraction, filtering, and corpus statistics tests."""

from __future__ import annotations

import random
import string
from collections import Counter

import pytest

from condenser.changeset import StructuralDiff, diff_facts
from condenser.config import PipelineConfig
from condenser.corpus import condense_commit, load_corpus
from condenser.identifiers import (
    CATEGORY_ORDER,
    EmphasizedIdentifier,
    IdentifierFilter,
    apply_filter,
    extract_identifiers,
    identifier_corpus_stats,
    simple_type_names,
    split_camel,
)
from condenser.javafacts import parse_java
from oracles import extract_identifiers_oracle


# --- split_camel golden set ----------------------------------------------------

SPLIT_GOLDEN = [
    ("getUserName", ["get", "User", "Name"]),
    ("HTTPServer2", ["HTTP", "Server", "2"]),
    ("trackstream", ["trackstream"]),
    ("setX", ["set", "X"]),
    ("X", ["X"]),
    ("x2y", ["x", "2", "y"]),
    ("parseJSONResponse", ["parse", "JSON", "Response"]),
    ("XMLHttpRequest", ["XML", "Http", "Request"]),
    ("IOError", ["IO", "Error"]),
    ("toString", ["to", "String"]),
    ("MAX_VALUE", ["MAX", "VALUE"]),
    ("snake_case_name", ["snake", "case", "name"]),
    ("mixed_CamelCase_words", ["mixed", "Camel", "Case", "words"]),
    ("version10beta3", ["version", "10", "beta", "3"]),
    ("a", ["a"]),
    ("A1", ["A", "1"]),
    ("ABC", ["ABC"]),
    ("AbC", ["Ab", "C"]),
    ("readHTML", ["read", "HTML"]),
    ("HTMLParser", ["HTML", "Parser"]),
    ("utf8Decoder", ["utf", "8", "Decoder"]),
    ("SHA256Hash", ["SHA", "256", "Hash"]),
    ("_leading", ["leading"]),
    ("trailing_", ["trailing"]),
    ("double__underscore", ["double", "underscore"]),
    ("Camel", ["Camel"]),
    ("camelCase", ["camel", "Case"]),
    ("CamelCASE", ["Camel", "CASE"]),
    ("name2", ["name", "2"]),
    ("2fast", ["2", "fast"]),
    ("requestParams", ["request", "Params"]),
    ("LoggingListener", ["Logging", "Listener"]),
    ("ElasticsearchLuceneTestCase", ["Elasticsearch", "Lucene", "Test", "Case"]),
]


@pytest.mark.parametrize("raw,expected", SPLIT_GOLDEN)
def test_split_camel_golden(raw, expected):
    assert split_camel(raw) == expected


def test_split_golden_set_has_30_plus_entries():
    assert len(SPLIT_GOLDEN) >= 30


def _random_identifier(rng: random.Random) -> str:
    first = rng.choice(string.ascii_letters + "_")
    rest = "".join(
        rng.choice(string.ascii_letters + string.digits + "_")
        for _ in range(rng.randint(0, 14))
    )
    return first + rest


def test_split_is_lossless_over_10000_random_identifiers():
    rng = random.Random(20260808)
    for _ in range(10_000):
        raw = _random_identifier(rng)
        words = split_camel(raw)
        assert all(words), raw
        # concatenation reproduces the identifier with separators removed
        assert "".join(words) == raw.replace("_", ""), raw
        # words appear in order as disjoint slices of raw
        cursor = 0
        for word in words:
            found = raw.find(word, cursor)
            assert found >= 0, (raw, words)
            cursor = found + len(word)


# --- simple type names -----------------------------------------------------------


def test_simple_type_names_flatten_generics():
    assert simple_type_names("List<Map<String,Foo>>") == ["List", "Map", "String", "Foo"]


def test_simple_type_names_drop_packages_and_arrays():
    assert simple_type_names("java.util.List<com.acme.Foo>[]") == ["List", "Foo"]
    assert simple_type_names("int[]") == ["int"]
    assert simple_type_names("String...") == ["String"]


# --- extraction -------------------------------------------------------------------


def test_empty_diff_yields_no_identifiers():
    facts = parse_java("class C { int x; }")
    diff = diff_facts(facts, facts, "F.java", "F.java")
    assert extract_identifiers(diff) == []


def test_constructor_change_contributes_class_name():
    old = parse_java("class RequestParams { RequestParams(String p) { use(p); } }")
    new = parse_java("class RequestParams { RequestParams(String... p) { use(p); } }")
    diff = diff_facts(old, new, "F.java", "F.java")
    ids = extract_identifiers(diff)
    assert ("RequestParams", "ClassName") in {(e.raw, e.category) for e in ids}


def test_one_method_one_field_one_annotation_in_category_order():
    old = parse_java("class Holder { }")
    new = parse_java(
        "class Holder {\n"
        "    @Autowired\n"
        "    Repository repo;\n"
        "    void syncAll() { repo.flush(); }\n"
        "}"
    )
    diff = diff_facts(old, new, "F.java", "F.java")
    ids = extract_identifiers(diff)
    cats = [e.category for e in ids]
    assert cats == sorted(cats, key=CATEGORY_ORDER.index)
    as_pairs = {(e.raw, e.category) for e in ids}
    assert ("syncAll", "MethodName") in as_pairs
    assert ("repo", "FieldName") in as_pairs
    assert ("Autowired", "Other") in as_pairs


def test_enum_constants_categorized_as_other():
    old = parse_java("enum Mode { FAST }")
    new = parse_java("enum Mode { FAST, SLOW_START }")
    diff = diff_facts(old, new, "F.java", "F.java")
    ids = extract_identifiers(diff)
    assert ("SLOW_START", "Other") in {(e.raw, e.category) for e in ids}


def test_deduplicated_by_raw_and_category():
    old = parse_java("class C { }")
    new = parse_java("class C { Service a; Service b; }")
    diff = diff_facts(old, new, "F.java", "F.java")
    ids = extract_identifiers(diff)
    type_names = [e.raw for e in ids if e.category == "TypeName"]
    assert type_names == ["Service"]


def test_order_is_stable_by_first_occurrence_within_category():
    old = parse_java("class C { }")
    new = parse_java("class C { void zebra() { } void apple() { } }")
    diff = diff_facts(old, new, "F.java", "F.java")
    ids = extract_identifiers(diff)
    methods = [e.raw for e in ids if e.category == "MethodName"]
    assert methods == ["zebra", "apple"]  # declaration order, not alphabetical


def test_extraction_matches_collect_then_sort_oracle(corpus_path, benchmark_input):
    samples = load_corpus(corpus_path)
    for seed in (1, 2, 3):
        for workload in ("corpus-typical", "rewrite-heavy"):
            samples += load_corpus(benchmark_input(workload, seed)["dir"] / "corpus.jsonl")
    assert len(samples) == 152
    seen: Counter = Counter()
    for sample in samples:
        diff = condense_commit(sample.commit_input()).diff
        ids = extract_identifiers(diff)
        assert ids == extract_identifiers_oracle(diff), (sample.repo, sample.hash)
        seen.update(e.category for e in ids)
        for fd in diff.files:
            seen["enum constant"] += any(f.is_enum_constant for _c, f in fd.field_added + fd.field_removed)
            seen["annotation change"] += bool(fd.annotation_changes)
            seen["method annotation"] += any(m.annotations for _c, m in fd.method_added + fd.method_removed)
    assert all(seen.values())


def test_other_names_keep_their_order_within_and_across_files():
    old_a = parse_java(
        "class C {\n  @Deprecated int f;\n  @Before void kept() { }\n}\nenum Mode { FAST }\n"
    )
    new_a = parse_java(
        "class C {\n  @Nullable int f;\n  @After void kept() { }\n  @Test void added() { }\n}\n"
        "enum Mode { FAST, SLOW }\n"
    )
    old_b = parse_java("class D { }\nenum Level { LOW }\n")
    new_b = parse_java("class D {\n  @Override public String run() { return null; }\n}\nenum Level { LOW, HIGH }\n")
    diff = StructuralDiff(
        diff_facts(old_a, new_a, "A.java", "A.java").files + diff_facts(old_b, new_b, "B.java", "B.java").files
    )
    ids = extract_identifiers(diff)
    assert ids == extract_identifiers_oracle(diff)
    # per file: enum constants, annotation changes, inline annotation
    # changes, then the annotations of added and removed methods
    assert [e.raw for e in ids if e.category == "Other"] == [
        "SLOW", "Deprecated", "Nullable", "After", "Before", "Test", "HIGH", "Override",
    ]


# --- filtering ---------------------------------------------------------------------


def ident(raw: str, category: str = "MethodName") -> EmphasizedIdentifier:
    return EmphasizedIdentifier(raw=raw, category=category, split=tuple(split_camel(raw)))


def test_filter_rejects_malformed_stoplist():
    with pytest.raises(ValueError):
        IdentifierFilter(stoplist=frozenset({"Upper"}))
    with pytest.raises(ValueError):
        IdentifierFilter(stoplist=frozenset({"two words"}))


def test_filter_drops_stoplisted():
    ids = [ident("get"), ident("RequestParams", "ClassName")]
    flt = IdentifierFilter(stoplist=frozenset({"get"}))
    assert [e.raw for e in apply_filter(ids, flt)] == ["RequestParams"]


def test_empty_stoplist_is_identity():
    ids = [ident("alpha"), ident("beta", "FieldName")]
    flt = IdentifierFilter(stoplist=frozenset())
    assert apply_filter(ids, flt) == ids


def test_min_length_drops_short_raw():
    ids = [ident("x"), ident("ok")]
    flt = IdentifierFilter(stoplist=frozenset(), min_length=2)
    assert [e.raw for e in apply_filter(ids, flt)] == ["ok"]


def test_anchor_survives_when_all_would_drop():
    ids = [ident("get"), ident("set", "ClassName"), ident("flagValue", "FieldName")]
    flt = IdentifierFilter(stoplist=frozenset({"get", "set"}))
    kept = apply_filter(ids, flt)
    # both anchors are stoplisted; the first one is restored
    assert ("get", "MethodName") in {(e.raw, e.category) for e in kept}
    assert ("flagValue", "FieldName") in {(e.raw, e.category) for e in kept}


def test_filter_is_idempotent():
    random_ids = [
        ident("get"), ident("update"), ident("Service", "ClassName"),
        ident("x", "FieldName"), ident("Map", "TypeName"), ident("Override", "Other"),
    ]
    flt = IdentifierFilter(stoplist=frozenset({"get", "map"}), min_length=2)
    once = apply_filter(random_ids, flt)
    twice = apply_filter(once, flt)
    assert once == twice


def test_default_stoplist_passes_trackstream():
    cfg = PipelineConfig()
    flt = IdentifierFilter(stoplist=cfg.stoplist, min_length=cfg.min_identifier_length)
    ids = [ident("trackstream", "FieldName"), ident("getTrackstream")]
    kept = apply_filter(ids, flt)
    assert ("trackstream", "FieldName") in {(e.raw, e.category) for e in kept}


@pytest.mark.parametrize("stop", [
    frozenset({"get", "set", "is", "id"}),
    PipelineConfig().stoplist,  # the shipped default
])
def test_hand_applied_filter_pass_on_50_identifiers(stop):
    rng = random.Random(17)
    pool = ["get", "set", "is", "x", "parseAll", "RequestParams", "trackstream",
            "MAX", "id", "Worker", "doIt", "a"]
    ids = [ident(rng.choice(pool), rng.choice(CATEGORY_ORDER)) for _ in range(50)]
    flt = IdentifierFilter(stoplist=stop, min_length=2)
    got = apply_filter(ids, flt)
    # independent rule pass
    expected = [e for e in ids if e.raw.lower() not in stop and len(e.raw) >= 2]
    anchors = [e for e in ids if e.category in ("MethodName", "ClassName")]
    if anchors and not [e for e in expected if e.category in ("MethodName", "ClassName")]:
        expected.append(anchors[0])
    assert {(e.raw, e.category) for e in got} == {(e.raw, e.category) for e in expected}


# --- corpus stats -------------------------------------------------------------------


def test_stats_single_sample_with_method_in_message():
    ids = [ident("getUserName"), ident("Parser", "ClassName")]
    rows = identifier_corpus_stats([(ids, "fix getUserName in user lookup")])
    by_cat = {cat: (v, s) for cat, v, s in rows}
    assert by_cat["MethodName"][0] == 1
    assert by_cat["MethodName"][1] >= 1  # split words land too
    assert by_cat["ClassName"] == (0, 0)


def test_stats_empty_corpus_all_zero():
    rows = identifier_corpus_stats([])
    assert rows == [(c, 0, 0) for c in CATEGORY_ORDER]


def test_stats_match_brute_force_substring_scan():
    rng = random.Random(5)
    words = ["parse", "update", "tracker", "stream", "Request", "Params"]
    samples = []
    for _ in range(20):
        ids = [
            ident(rng.choice(["parseAll", "updateTracker", "RequestParams", "trackstream"]),
                  rng.choice(CATEGORY_ORDER))
            for _ in range(rng.randint(0, 4))
        ]
        message = " ".join(rng.choice(words) for _ in range(rng.randint(2, 8)))
        samples.append((ids, message))
    rows = identifier_corpus_stats(samples)
    # independent scan
    expected = {c: [0, 0] for c in CATEGORY_ORDER}
    for ids, message in samples:
        low = message.lower()
        for e in ids:
            if low.find(e.raw.lower()) != -1:
                expected[e.category][0] += 1
            for w in e.split:
                if low.find(w.lower()) != -1:
                    expected[e.category][1] += 1
    assert rows == [(c, expected[c][0], expected[c][1]) for c in CATEGORY_ORDER]
