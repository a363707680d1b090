"""The result and value types are immutable ``NamedTuple`` records.

Every record keeps what the code and the reports rely on: attributes
cannot be assigned, the hash is the hash of the field tuple (so set and
dict orders depend only on the fields), and a record rebuilt from its
own fields is equal to it.  The four validating types (``Partition``,
``Chain``, ``PatternHit``, ``NCSpanningTree``) reject bad input through
the constructor and through ``_replace`` alike.  A fresh
``import ncpverify.cli`` loads neither ``dataclasses`` nor the modules
that only ``check --dominant``, ``enumerate --what trees`` and
``render`` run.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ncpverify
from ncpverify.apartments import DominanceReport, NCSpanningTree
from ncpverify.chains import Chain, InvalidChainError, smallest_blocks
from ncpverify.condition4 import (
    PatternHit,
    RefutationCertificate,
    cond_iv,
    pattern_refute,
)
from ncpverify.core import Partition, dihedral_group
from ncpverify.enumeration import OrbitClass
from ncpverify.fixtures import load_fixtures
from ncpverify.pipeline import (
    AlignmentTable,
    CaseConventionRow,
    FixtureAlignmentRow,
    condition_iii_survey,
    reduced_classes,
    run_theorem5,
    validate_lemma3,
)
from ncpverify.replay import replay_certificate


def _records():
    """One instance of every record type, built through the package."""
    chain = Chain.from_text(7, "12<1234")
    refuted = Chain.from_text(7, "12<12346")
    certificate = pattern_refute(refuted)
    fixtures = load_fixtures()
    report = run_theorem5(6)
    row = FixtureAlignmentRow(9, "12<12346", "12<12346", True, True, True, "forced", True, True)
    convention = CaseConventionRow(9, True, False)
    return [
        Partition.from_text(7, "12,46"),
        dihedral_group(7)[8],
        chain,
        smallest_blocks(chain),
        NCSpanningTree.from_text(4, "1-2,2-3,3-4"),
        DominanceReport(chain.members[0], 3),
        PatternHit(4, "-", 3, 6),
        cond_iv(chain),
        certificate,
        replay_certificate(certificate),
        OrbitClass(chain, 14, chain, (1, 2), (1, 2), ((1, 2),)),
        fixtures.rank_sets[0],
        fixtures.cases[0],
        fixtures,
        report.classes[0],
        report,
        reduced_classes(6),
        condition_iii_survey(6),
        row,
        convention,
        AlignmentTable((row,), (convention,), True),
        validate_lemma3(6),
    ]


RECORDS = _records()


def test_every_record_type_is_covered():
    found = set()
    for info in pkgutil.iter_modules(ncpverify.__path__):
        module = importlib.import_module(f"ncpverify.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields"):
                if value.__module__ == module.__name__ and not value.__name__.startswith("_"):
                    found.add(value)
    assert found == {type(x) for x in RECORDS}
    assert len(found) == 22


@pytest.mark.parametrize("record", RECORDS, ids=lambda x: type(x).__name__)
def test_record_semantics(record):
    cls = type(record)
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], getattr(record, cls._fields[0]))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*record)
    assert record == cls(**record._asdict())
    try:
        expected = hash(tuple(record))
    except TypeError:
        # Fields holding dicts (certificate steps, the candidate map) make
        # a record unhashable, as they made the frozen dataclass.
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


def test_repr_names_the_type_and_fields():
    assert repr(PatternHit(1, "+", 2, 1)) == "PatternHit(k=1, sign='+', i=2, variant=1)"
    assert repr(Chain.from_text(7, "12<1234")) == "Chain(7, '12<1234')"


def test_certificate_conclusion_default():
    cert = RefutationCertificate("12", 7, False, ())
    assert cert.conclusion == "condition IV fails"


# -- validation cannot be bypassed ----------------------------------------


def _both_ways(build, replace, error, match):
    with pytest.raises(error, match=match):
        build()
    with pytest.raises(error, match=match):
        replace()


def test_partition_validates():
    good = Partition.from_text(4, "12")
    missing = (0b0011, 0b0100)
    overlapping = (0b0011, 0b0110, 0b1000)
    _both_ways(
        lambda: Partition(4, missing), lambda: good._replace(parts=missing), ValueError, "cover"
    )
    _both_ways(
        lambda: Partition(4, overlapping),
        lambda: good._replace(parts=overlapping),
        ValueError,
        "disjoint",
    )
    _both_ways(
        lambda: Partition(4, (0, 0b1111)),
        lambda: good._replace(parts=(0, 0b1111)),
        ValueError,
        "nonempty",
    )


def test_partition_sorts_its_parts():
    unsorted = (0b1000000, 0b0101000, 0b0000011, 0b0010000, 0b0000100)
    p = Partition(7, unsorted)
    assert p.parts == (0b0000011, 0b0000100, 0b0101000, 0b0010000, 0b1000000)
    assert p == Partition.from_text(7, "12,46")
    assert Partition.from_text(7, "")._replace(parts=unsorted) == p


def test_chain_validates():
    good = Chain.from_text(7, "12<1234")
    backwards = tuple(reversed(good.members))
    _both_ways(
        lambda: Chain(7, ()), lambda: good._replace(members=()), InvalidChainError, "member"
    )
    _both_ways(
        lambda: Chain(7, backwards),
        lambda: good._replace(members=backwards),
        InvalidChainError,
        "strictly increasing",
    )
    assert Chain._trusted(good.n, good.members) == good
    assert type(Chain._trusted(good.n, good.members)) is Chain


def test_pattern_hit_validates():
    good = PatternHit(4, "-", 3, 6)
    _both_ways(
        lambda: PatternHit(4, "*", 3, 6), lambda: good._replace(sign="*"), ValueError, "sign"
    )
    _both_ways(
        lambda: PatternHit(5, "-", 3, 1), lambda: good._replace(k=5), ValueError, "length"
    )
    _both_ways(
        lambda: PatternHit(4, "-", 3, 9), lambda: good._replace(variant=9), ValueError, "clause"
    )


def test_spanning_tree_validates():
    good = NCSpanningTree.from_text(4, "1-2,2-3,3-4")
    crossing = ((1, 2), (1, 3), (2, 4))
    _both_ways(
        lambda: NCSpanningTree(4, crossing),
        lambda: good._replace(edges=crossing),
        ValueError,
        "cross",
    )
    _both_ways(
        lambda: NCSpanningTree(4, ((1, 2), (2, 3))),
        lambda: good._replace(edges=((1, 2), (2, 3))),
        ValueError,
        "needs 3 edges",
    )
    assert NCSpanningTree._trusted(4, good.edges) == good


# -- the import path ---------------------------------------------------------


def test_cli_import_loads_no_dataclasses_and_no_lazy_modules():
    src = Path(ncpverify.__file__).resolve().parents[1]
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ncpverify.cli\n"
        "names = ('dataclasses', 'inspect', 'ncpverify.apartments', 'ncpverify.svg')\n"
        "print(' '.join(m for m in names if m in set(sys.modules) - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""
