"""Acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL line
(run pytest with -s or look at captured output for the verdicts).
"""
import itertools
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings

from polytax import ingest
from polytax.analytics import (
    NULL_POLICY_LABEL,
    build_trait_matrix,
    euclidean_distance,
    kruskal_mst,
    pearson_correlation,
    trait_less_category_ids,
)
from polytax.enumeration import enumerate_schemas
from polytax.export import export_matrix_csv, export_mst_dot, export_tree_dot
from polytax.model import PolicyError, instantiate_atomic_policy, validate_model

from .strategies import taxonomy_models
from .test_analytics import (
    assert_spanning_tree,
    brute_force_mst_weight,
    random_binary_matrix,
)
from .test_ingest import GOLDEN_TABLE_COUNTS, GOLDEN_TOTAL

TOL = 1e-9


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"FAIL: criterion {number} — {label}")
        raise
    print(f"PASS: criterion {number} — {label}")


def test_criterion_1_dataset_fidelity():
    with criterion(1, "dataset fidelity"):
        start = time.perf_counter()
        model = ingest.load_bundled_dataset()
        assert len(model.traits) == 23
        counts = {t.name: sum(len(r.marks) for r in t.rows) for t in model.tables}
        assert counts == GOLDEN_TABLE_COUNTS
        assert time.perf_counter() - start < 1.0


def test_criterion_2_enumeration(model):
    with criterion(2, "atomic-policy enumeration"):
        start = time.perf_counter()
        schemas = enumerate_schemas(model)
        assert len(schemas) == sum(GOLDEN_TABLE_COUNTS.values()) == GOLDEN_TOTAL
        marked = {(s.category_id, s.trait_id) for s in schemas}
        for category in model.categories:
            for trait in model.traits:
                sub = trait.subtraits[0].id if trait.subtraits else None
                try:
                    instantiate_atomic_policy(model, category.id, trait.id, sub, {})
                    ok = True
                except PolicyError as exc:
                    ok = exc.code == "E_BINDING"
                assert ok == ((category.id, trait.id) in marked)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_correlation_semantics(model):
    with criterion(3, "correlation semantics"):
        tm = build_trait_matrix(model, "include")
        corr = pearson_correlation(tm)
        constant = {
            i for i, row in enumerate(tm.cells) if len(set(row.tolist())) == 1
        }
        n = len(corr.labels)
        for i in range(n):
            for j in range(n):
                a, b = corr.cells[i][j], corr.cells[j][i]
                if i in constant or j in constant:
                    assert np.isnan(a) and np.isnan(b)
                else:
                    assert abs(a - b) <= TOL
                    if i == j:
                        assert abs(a - 1.0) <= TOL
        for x, y in itertools.combinations(
            ("inheritance-tax", "estate-tax", "gift-tax"), 2
        ):
            r = corr.cells[corr.labels.index(x)][corr.labels.index(y)]
            assert abs(r - 1.0) <= TOL


def test_criterion_4_mst_correctness(model):
    with criterion(4, "MST correctness"):
        start = time.perf_counter()
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(2, 6)
            dist = euclidean_distance(random_binary_matrix(rng, n))
            mst = kruskal_mst(dist)
            assert len(mst.edges) == n - 1
            assert abs(sum(w for _, _, w in mst.edges) - brute_force_mst_weight(dist.cells)) <= TOL
        for null_mode in ("include", "collapse", "exclude"):
            tm = build_trait_matrix(model, null_mode)
            mst = kruskal_mst(euclidean_distance(tm))
            assert_spanning_tree(mst.edges, len(tm.row_labels))
        assert time.perf_counter() - start < 10.0


def test_criterion_5_null_mode_algebra(model):
    with criterion(5, "null-mode algebra"):
        include = build_trait_matrix(model, "include")
        collapse = build_trait_matrix(model, "collapse")
        exclude = build_trait_matrix(model, "exclude")
        n_inc, n_col, n_exc = (
            len(m.row_labels) for m in (include, collapse, exclude)
        )
        assert n_exc < n_col < n_inc
        assert n_col == n_inc - len(trait_less_category_ids(model)) + 1
        zero_rows = [
            label
            for label, row in zip(collapse.row_labels, collapse.cells)
            if not row.any()
        ]
        assert zero_rows == [NULL_POLICY_LABEL]


@settings(max_examples=500, deadline=None)
@given(taxonomy_models())
def test_criterion_6_roundtrip_property(m):
    text = ingest.serialize_taxonomy_document(m)
    again, diags = ingest.parse_taxonomy_document(text)
    assert diags == []
    assert again == m
    assert validate_model(m) == validate_model(m._replace())


def test_criterion_6_determinism(model):
    with criterion(6, "determinism & round-trip"):
        text = ingest.serialize_taxonomy_document(model)
        again, diags = ingest.parse_taxonomy_document(text)
        assert diags == []
        assert again == model
        assert ingest.serialize_taxonomy_document(again) == text
        assert export_tree_dot(model).text == export_tree_dot(model).text
        tm = build_trait_matrix(model)
        assert export_matrix_csv(tm).text == export_matrix_csv(tm).text
        mst = kruskal_mst(euclidean_distance(tm))
        assert export_mst_dot(mst).text == export_mst_dot(mst).text


def test_criterion_7_extendability(model):
    with criterion(7, "extendability"):
        implementers = [
            "personal-income-tax", "corporate-tax", "land-value-tax",
        ]
        extension = {
            "traits": [{"id": "sunset-clause", "name": "Sunset Clause"}],
            "tables": [
                {
                    "name": "income-tax",
                    "trait_columns": ["sunset-clause"],
                    "rows": [
                        {"category": c, "marks": ["sunset-clause"]}
                        for c in implementers
                        if c != "land-value-tax"
                    ],
                },
                {
                    "name": "property-tax",
                    "trait_columns": ["sunset-clause"],
                    "rows": [
                        {"category": "land-value-tax", "marks": ["sunset-clause"]}
                    ],
                },
            ],
        }
        merged = ingest.merge_extension(model, extension)
        assert len(merged.traits) == len(model.traits) + 1
        before = sum(len(r.marks) for t in model.tables for r in t.rows)
        after = sum(len(r.marks) for t in merged.tables for r in t.rows)
        assert after == before + len(implementers)
        for c in implementers:
            assert "sunset-clause" in merged.implementable_trait_ids(c)
