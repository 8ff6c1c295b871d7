"""The value classes: immutable, compared and hashed by their fields.

Every value type of the package derives from `kernel.Value`.  A value is
equal to another exactly when both are of the same class with equal field
tuples, hashes as that tuple, prints as ``Name(field=value, ...)`` and
refuses to set or delete a field.  The three subgroup images are values
too, but compare as subgroups of their window.  The last test checks that
importing the CLI loads neither `dataclasses` nor `inspect`.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from tdlcw import cli, epseq, kernel, limits, linear, shift, tidy, verify
from tdlcw.kernel import MatrixWindow, SubgroupImage, Value, VectorWindow, cached_attribute
from tdlcw.linear import LinearModel
from tdlcw.shift import CoordinateImage, ShiftModel, w_subgroup
from tdlcw.verify import QuotientDescriptor

#: The value classes compared by their fields.
FIELD_VALUES = [
    kernel.VectorWindow, kernel.MatrixWindow, epseq.EPSeq,
    shift.ShiftElement, shift.ShiftOpen, shift.TranslateUnion,
    linear.ShapeSubgroup, limits.PowerTable, limits.ConjugatorTrace,
    limits.TwoSidedTrace, limits.ChabautyDistance, limits.ClosedSubgroupApprox,
    tidy.UParts, verify.QuotientDescriptor,
]
#: The value classes compared as subgroups of their window.
IMAGES = [kernel.SubgroupImage, shift.CoordinateImage, linear.ShapeImage]

SHIFT, LINEAR = ShiftModel(2), LinearModel(2, 2)

#: Two sets of field values, differing in every field, for the classes
#: whose constructors check their arguments; any others take any values.
CHECKED = {
    QuotientDescriptor: ((SHIFT, "trivial"), (LINEAR, "lamp")),
}


def field_values(cls):
    """(base, other): the field values of two instances differing in every
    field."""
    if cls in CHECKED:
        return CHECKED[cls]
    n = len(cls.__slots__)
    return tuple(range(1, n + 1)), tuple(range(101, 101 + n))


def twin(cls, values):
    """An instance of another value class with the same name, field names
    and field values."""
    other = type(cls.__name__, (Value,), {"__slots__": cls.__slots__})
    obj = object.__new__(other)
    for name, value in zip(cls.__slots__, values):
        getattr(other, name).__set__(obj, value)
    return obj


def test_every_value_class_is_listed():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    package = {c for c in subclasses(Value) if c.__module__.startswith("tdlcw.")}
    assert package == set(FIELD_VALUES) | set(IMAGES) | {kernel.Image}
    assert len(FIELD_VALUES) + len(IMAGES) == 17


@pytest.mark.parametrize("cls", FIELD_VALUES, ids=lambda c: c.__name__)
class TestFieldValues:
    def test_equal_fields_are_equal_values(self, cls):
        base, _ = field_values(cls)
        a, b = cls(*base), cls(*base)
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(tuple(base))

    def test_each_changed_field_makes_them_differ(self, cls):
        base, other = field_values(cls)
        a = cls(*base)
        for i, name in enumerate(cls.__slots__):
            changed = cls(*base[:i], other[i], *base[i + 1:])
            assert getattr(changed, name) == other[i]
            assert a != changed and not a == changed, name

    def test_another_class_with_equal_fields_differs(self, cls):
        base, _ = field_values(cls)
        a = cls(*base)
        assert a != twin(cls, base) and twin(cls, base) != a
        assert a != tuple(base)

    def test_fields_can_be_neither_set_nor_deleted(self, cls):
        base, other = field_values(cls)
        a = cls(*base)
        for name, value in zip(cls.__slots__, other):
            with pytest.raises(AttributeError):
                setattr(a, name, value)
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a == cls(*base)

    def test_wrong_field_count_raises_type_error(self, cls):
        base, _ = field_values(cls)
        for values in ((), base[:1], (*base, base[0])):
            with pytest.raises(TypeError):
                cls(*values)

    def test_repr_names_every_field(self, cls):
        base, _ = field_values(cls)
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, base))
        assert repr(cls(*base)) == f"{cls.__name__}({fields})"

    def test_copies_are_equal(self, cls):
        base, _ = field_values(cls)
        a = cls(*base)
        assert copy.copy(a) == a
        if cls is not QuotientDescriptor:  # its model compares by identity
            assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("count", range(8))
def test_constructor_of_every_field_count(count):
    names = tuple("abcdefg"[:count])
    cls = type(f"Fields{count}", (Value,), {"__slots__": names})
    obj = cls(*range(count))
    assert tuple(getattr(obj, name) for name in names) == tuple(range(count))
    assert repr(obj) == f"Fields{count}(" + ", ".join(
        f"{name}={i}" for i, name in enumerate(names)) + ")"
    with pytest.raises(TypeError, match=f"Fields{count}.__init__"):
        cls(*range(count + 1))
    if count:
        with pytest.raises(TypeError, match=f"Fields{count}.__init__"):
            cls(*range(count - 1))
        with pytest.raises(TypeError):
            cls(*range(count - 1), **{names[-1]: 0})


def test_at_most_seven_fields():
    with pytest.raises(TypeError, match="at most 7 fields"):
        type("Wide", (Value,), {"__slots__": tuple("abcdefgh")})


@pytest.mark.parametrize("cls", FIELD_VALUES, ids=lambda c: c.__name__)
def test_value_init_hands_over_to_the_class_constructor(cls):
    # `super().__init__` from a class's own `__init__` reaches Value.__init__.
    base, _ = field_values(cls)
    obj = object.__new__(cls)
    Value.__init__(obj, *base)
    assert obj == cls(*base)
    with pytest.raises(TypeError, match=cls.__name__):
        Value.__init__(object.__new__(cls), *base, base[0])


def test_own_init_stores_every_field_in_order():
    window = VectorWindow(2, 3)
    elements = frozenset({(0, 0, 0), (1, 0, 0)})
    image = SubgroupImage(window, elements)
    assert (image.window, image.elements) == (window, elements)
    assert (SubgroupImage(window).window, SubgroupImage(window).elements) == (
        window, {(0, 0, 0)})
    assert repr(image) == f"SubgroupImage(window={window!r}, elements={elements!r})"
    quotient = QuotientDescriptor(SHIFT, "lamp")
    assert (quotient.model, quotient.kind) == (SHIFT, "lamp")
    assert repr(quotient) == f"QuotientDescriptor(model={SHIFT!r}, kind='lamp')"
    with pytest.raises(TypeError):
        QuotientDescriptor(SHIFT, "lamp", "extra")


class TestCachedAttribute:
    """`kernel.cached_attribute`, which the images use for their derived
    attributes: computed once per instance, kept in that instance's
    `__dict__`, never copied or pickled."""

    @staticmethod
    def _counted(monkeypatch, name):
        calls = []
        real = getattr(linear, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(linear, name, counted)
        return calls

    def test_computed_once_per_instance(self, monkeypatch):
        orders = self._counted(monkeypatch, "_shape_order")
        image = LINEAR.filtration(1).window_image(2)
        residues = self._counted(monkeypatch, "_residues")
        assert image.order == image.order == 16
        assert image.elements is image.elements
        assert len(image.elements) == image.order
        assert (len(orders), len(residues)) == (1, 1)
        assert vars(image) == {"order": 16, "elements": image.elements}

    def test_not_shared_between_equal_images(self, monkeypatch):
        residues = self._counted(monkeypatch, "_residues")
        a, b = (LINEAR.filtration(1).window_image(2) for _ in range(2))
        elements = a.elements
        assert "elements" in vars(a) and "elements" not in vars(b)
        assert b.elements == elements and b.elements is not elements
        assert len(residues) == 2
        assert a == b

    def test_coordinate_elements(self):
        a = CoordinateImage(VectorWindow(2, 5), frozenset({0, 3}))
        b = CoordinateImage(VectorWindow(2, 5), frozenset({1}))
        assert a.elements is a.elements and vars(a) == {"elements": frozenset(
            {(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (1, 0, 0, 1, 0)})}
        assert vars(b) == {} and b.elements == {(0, 0, 0, 0, 0), (0, 1, 0, 0, 0)}

    @pytest.mark.parametrize("rebuild", [copy.copy, lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "pickle"])
    def test_copies_compute_their_own(self, rebuild):
        shape = LINEAR.filtration(1).window_image(2)
        conjugated = shape.conjugated(((1, 1), (0, 1)))
        for image in (shape, conjugated,
                      CoordinateImage(VectorWindow(2, 5), frozenset({0, 3}))):
            cached = {name: getattr(image, name) for name in ("order", "elements")}
            again = rebuild(image)
            assert "elements" not in vars(again)
            assert {name: getattr(again, name) for name in cached} == cached
            assert again == image and hash(again) == hash(image)

    def test_read_on_the_class_gives_the_descriptor(self):
        for cls, name in [(linear.ShapeImage, "order"), (linear.ShapeImage, "generators"),
                          (linear.ShapeImage, "elements"), (CoordinateImage, "elements")]:
            attribute = getattr(cls, name)
            assert isinstance(attribute, cached_attribute) and attribute.name == name
        assert linear.ShapeImage.generators.__doc__.startswith("b (I + p^e E_rs) b^-1")


def test_repr_of_nested_values():
    lamp = epseq.EPSeq.make(2, [0], [1], 3, [0])
    assert repr(shift.ShiftElement(lamp, -1)) == (
        "ShiftElement(lamp=EPSeq(p=2, left=b'\\x00', core=b'\\x01', offset=3, "
        "right=b'\\x00'), shift=-1)")
    assert repr(MatrixWindow(2, 3, 1)) == "MatrixWindow(n=2, p=3, K=1)"


def test_keyword_defaults():
    # The constructor built from `__slots__` takes every field, positionally.
    with pytest.raises(TypeError):
        shift.TranslateUnion(2, shift.NOWHERE, step=1)
    assert shift.TranslateUnion(2, shift.NOWHERE, 1).step == 1
    assert shift.EVERYWHERE == epseq.EPSeq.make(2, [1], [], 5, [1])
    with pytest.raises(kernel.UnsupportedElementError):
        QuotientDescriptor(LINEAR, "lamp")


def _images():
    window = VectorWindow(2, 3)
    return [
        (SubgroupImage(window, frozenset({(0, 0, 0), (0, 1, 0)})),
         SubgroupImage(window, frozenset({(0, 0, 0), (1, 0, 0)}))),
        (CoordinateImage(window, frozenset({1})), CoordinateImage(window, frozenset({0}))),
        (LINEAR.reference().window_image(2), LINEAR.filtration(1).window_image(2)),
    ]


@pytest.mark.parametrize("pair", range(3), ids=[c.__name__ for c in IMAGES])
def test_images_are_immutable_subgroups(pair):
    image, other = _images()[pair]
    cls = type(image)
    again = cls(*(getattr(image, name) for name in cls.__slots__))
    assert image == again and hash(image) == hash(again) == hash((image.window, image.order))
    assert image != other
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(image, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(image, name)
    fields = ", ".join(f"{name}={getattr(image, name)!r}" for name in cls.__slots__)
    assert repr(image) == f"{cls.__name__}({fields})"
    # A cached_attribute is stored in the instance dict, past the guard.
    assert image.elements is image.elements
    assert copy.copy(image) == image


def test_images_compare_across_classes():
    window = VectorWindow(2, 3)
    coords = CoordinateImage(window, frozenset({1}))
    assert coords == SubgroupImage(window, frozenset(coords.elements))
    assert SubgroupImage(window).elements == {window.identity}
    assert w_subgroup(2, 1).window_image(1) == CoordinateImage(window, frozenset())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, tdlcw.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
