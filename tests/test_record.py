import hashlib
import json

import numpy as np
import pytest

from anisofield._record import DERIVED, asdict, frozen
from anisofield.calibration import FrequencyGrid, NoiseLevel
from anisofield.experiments import (PARAM_CLASSES, ExperimentConfig,
                                    RunManifest)
from anisofield.hitting import HittingEstimate, LipschitzDrift
from anisofield.metric import EuclideanBall, HurstVector, IndexSet


@frozen
class Pair:
    a: int
    b: tuple = (1, 2)


@frozen
class Derived:
    n: int
    double: int = DERIVED

    def __post_init__(self):
        object.__setattr__(self, "double", 2 * self.n)


class TestFrozen:
    def test_fields_in_annotation_order_with_defaults(self):
        assert tuple(asdict(Pair(0))) == ("a", "b")
        assert Pair.b == (1, 2) and not hasattr(Pair, "a")
        assert asdict(Pair(3)) == {"a": 3, "b": (1, 2)}

    def test_positional_and_keyword_init(self):
        assert Pair(1, (3,)) == Pair(b=(3,), a=1) == Pair(1, b=(3,))
        assert NoiseLevel(2.0, 1.0) == NoiseLevel(a=2.0, p=1.0)
        assert NoiseLevel(2.0).p == 1.5

    @pytest.mark.parametrize("make,fragment", [
        (lambda: Pair(), "Pair.__init__() takes ('a', 'b'), got 0 positional "
                         "and the keywords []"),
        (lambda: NoiseLevel(p=2.0), "NoiseLevel.__init__() takes ('a', 'p'), "
                                    "got 0 positional and the keywords ['p']"),
        (lambda: Pair(1, c=2), "got 1 positional and the keywords ['c']"),
        (lambda: Pair(1, a=2), "multiple values for keyword argument 'a'"),
        (lambda: Pair(1, 2, 3), "takes ('a', 'b'), got 3 positional"),
        (lambda: FrequencyGrid(2.0, 0.5, points=np.zeros(3)),
         "the keywords ['points']"),
        (lambda: Derived(1, 2), "takes ('n',), got 2 positional")],
        ids=["missing", "missing-NoiseLevel", "unknown", "twice",
             "too-many", "derived-keyword", "derived-positional"])
    def test_bad_arguments_raise_type_error(self, make, fragment):
        with pytest.raises(TypeError) as info:
            make()
        assert fragment in str(info.value)

    @pytest.mark.parametrize("make,fragment", [
        (lambda: NoiseLevel(a=0.5), "must exceed 1/2"),
        (lambda: HurstVector(H=(0.5, 1.5)), "outside (0, 1]"),
        (lambda: HurstVector(H=()), "at least one exponent"),
        (lambda: IndexSet((0.0, 1.0), (1.0, 0.5)), "empty or unbounded box [1.0, 0.5]"),
        (lambda: EuclideanBall(center=(0.0,), radius=-1.0), "negative radius"),
        (lambda: LipschitzDrift(kind="cubic"), "cubic"),
        (lambda: HittingEstimate(0.5, 0.6, 0.7, 10, 0.1), "bracket"),
        (lambda: FrequencyGrid(1.0, 0.1), "need finite V > 1")],
        ids=["NoiseLevel", "HurstVector", "HurstVector-empty", "IndexSet",
             "EuclideanBall", "LipschitzDrift", "HittingEstimate",
             "FrequencyGrid"])
    def test_post_init_refusals(self, make, fragment):
        with pytest.raises(ValueError) as info:
            make()
        assert fragment in str(info.value)

    def test_post_init_normalises(self):
        H = HurstVector(H=[1, 0.5])
        assert H.H == (1.0, 0.5) and type(H.H[0]) is float
        assert Derived(4).double == 8

    def test_assignment_and_deletion_refused(self):
        for record, name in [(Pair(1), "a"), (Pair(1), "c"),
                             (NoiseLevel(2.0), "p"),
                             (FrequencyGrid(2.0, 0.5), "points")]:
            with pytest.raises(AttributeError, match="frozen"):
                setattr(record, name, 0)
            with pytest.raises(AttributeError, match="frozen"):
                delattr(record, name)
        assert NoiseLevel(2.0).p == 1.5

    def test_eq_and_hash_over_the_fields(self):
        assert NoiseLevel(2.0) == NoiseLevel(2.0, 1.5)
        assert hash(NoiseLevel(2.0)) == hash(NoiseLevel(2.0, 1.5))
        assert NoiseLevel(2.0) != NoiseLevel(2.0, 1.0)
        assert len({NoiseLevel(2.0), NoiseLevel(a=2.0), NoiseLevel(3.0)}) == 2
        # equal field values are not enough: the classes must match, and a
        # record is not a tuple
        assert Pair(1, (1, 2)) != (1, (1, 2))
        assert HurstVector(H=(0.5,)) != EuclideanBall(center=(0.5,), radius=0)

    def test_derived_field_left_out_of_comparison(self):
        g, h = FrequencyGrid(2.0, 0.5), FrequencyGrid(2, 0.5)
        assert g.points is not h.points
        assert g == h and hash(g) == hash(h)
        assert g != FrequencyGrid(2.0, 0.25)
        assert tuple(asdict(g)) == ("V", "step", "points")
        assert Derived(1) == Derived(1) and hash(Derived(1)) == hash(Derived(1))

    def test_repr_names_every_field(self):
        assert repr(NoiseLevel(2.0)) == "NoiseLevel(a=2.0, p=1.5)"
        assert repr(Derived(1)) == "Derived(n=1, double=2)"


# sha256 of json.dumps({kind: echo of that kind's defaults at seed 3 and
# out_dir "x"}), key order included, as the dataclass version of the params
# gave it (tool version 0.8.0)
ECHO_DIGEST = "5bedcac0cafdf7b75279a8e805c851147fe1a0c81032ff2e85dc0fe5aa6b89a0"


def test_echo_unchanged_for_every_kind():
    docs = {kind: ExperimentConfig.from_dict(kind, {"seed": 3, "out_dir": "x"}).echo()
            for kind in PARAM_CLASSES}
    assert hashlib.sha256(json.dumps(docs).encode()).hexdigest() == ECHO_DIGEST
    for kind, cls in PARAM_CLASSES.items():
        assert list(docs[kind]) == [*asdict(cls()), "seed", "workers", "out_dir"]


def test_manifest_asdict_is_shallow_and_ordered():
    config, outputs = {"n": [1, 2]}, {"results.csv": "0" * 64}
    man = RunManifest("k", config, "0.8.0", "s", "f", "scheme", outputs, {}, {})
    doc = asdict(man)
    assert list(doc) == ["kind", "config", "version", "started", "finished",
                         "seed_scheme", "outputs", "blas", "jitter"]
    assert doc["config"] is config and doc["outputs"] is outputs
