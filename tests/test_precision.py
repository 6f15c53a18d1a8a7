"""Who owns the working precision: the 64-bit floor, SystemSpec's bits, and
static checks that no module but `precision` changes mp.prec or decides
what counts as an integer."""

import ast
from pathlib import Path

import pytest
from mpmath import mp, mpf

from nikishin_hp import (
    Interval,
    MeasureSpec,
    SystemSpec,
    build_system,
    set_precision,
    working_precision,
)
from nikishin_hp.precision import checked_bits, checked_int, is_integer, noise_floor

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nikishin_hp"
FLOOR_MESSAGE = "working precision must be >= 64 bits, got 32"


def legendre(a, b, n):
    return MeasureSpec(kind="legendre-density", interval=Interval(a, b), node_count=n)


def assigned(target):
    """The nodes an assignment to target writes: the target itself, or each
    element of a tuple, list or starred target, but nothing a subscript's
    slice or value reads."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from assigned(element)
    elif isinstance(target, ast.Starred):
        yield from assigned(target.value)
    else:
        yield target


def precision_writes(source: str) -> list:
    """Line numbers at which `source` assigns mp.prec or mp.dps (also through
    setattr) or calls set_precision."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(
                isinstance(t, ast.Attribute)
                and t.attr in ("prec", "dps")
                and isinstance(t.value, ast.Name)
                and t.value.id == "mp"
                for target in targets
                for t in assigned(target)
            ):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "set_precision" or (
                name == "setattr"
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "mp"
            ):
                lines.append(node.lineno)
    return sorted(lines)


class TestOneOwner:
    def test_no_other_module_changes_mp_prec(self):
        found = {}
        for path in sorted(PACKAGE.glob("*.py")):
            if path.name != "precision.py":
                lines = precision_writes(path.read_text())
                if lines:
                    found[path.name] = lines
        assert found == {}

    def test_the_guard_sees_each_form(self):
        source = (
            "mp.prec = 64\n"
            "mp.prec += 1\n"
            "mp.dps = 30\n"
            "old, mp.prec = mp.prec, 64\n"
            "set_precision(64)\n"
            "precision.set_precision(64)\n"
            "setattr(mp, 'prec', 64)\n"
            "with mp.workprec(64):\n"
            "    x = mp.prec\n"
            "table[mp.prec] = 1\n"
            "t[mp.prec, k] += 1\n"
        )
        assert precision_writes(source) == [1, 2, 3, 4, 5, 6, 7]
        assert precision_writes((PACKAGE / "precision.py").read_text())


def integer_tests(source: str) -> list:
    """Line numbers at which `source` calls an is_integer method: a call
    x.is_integer() without arguments, as float's is, and not the module
    function precision.is_integer(x)."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "is_integer"
        and not node.args
    )


class TestOneIntegerRule:
    """precision.is_integer is the package's one answer to "is this an
    integer": no other module tests a float's fractional part itself."""

    def test_no_other_module_calls_is_integer_methods(self):
        found = {}
        for path in sorted(PACKAGE.glob("*.py")):
            if path.name != "precision.py":
                lines = integer_tests(path.read_text())
                if lines:
                    found[path.name] = lines
        assert found == {}

    def test_the_guard_sees_each_form(self):
        source = (
            "x.is_integer()\n"
            "float(v).is_integer()\n"
            "is_integer(x)\n"
            "precision.is_integer(x)\n"
        )
        assert integer_tests(source) == [1, 2]
        assert integer_tests((PACKAGE / "precision.py").read_text())

    @pytest.mark.parametrize("x", [0, 7, -3, 128.0, -2.0, 10**30])
    def test_integers(self, x):
        assert is_integer(x)
        got = checked_int(x, "count")
        assert got == x and type(got) is int

    @pytest.mark.parametrize(
        "x", [True, False, 2.5, float("inf"), float("nan"), "4", None, mp.mpf(4), 4j]
    )
    def test_non_integers(self, x):
        assert not is_integer(x)
        with pytest.raises(ValueError, match=r"^count must be an integer, got "):
            checked_int(x, "count")


class TestFloor:
    @pytest.mark.parametrize(
        "call",
        [
            checked_bits,
            set_precision,
            lambda bits: working_precision(bits).__enter__(),
            lambda bits: SystemSpec([legendre(-1, 0, 4)], bits),
        ],
        ids=["checked_bits", "set_precision", "working_precision", "SystemSpec"],
    )
    def test_one_message_below_64_bits(self, call):
        before = mp.prec
        with pytest.raises(ValueError) as info:
            call(32)
        assert str(info.value) == FLOOR_MESSAGE
        assert mp.prec == before

    def test_64_bits_accepted(self):
        assert checked_bits(64) == 64
        assert SystemSpec([legendre(-1, 0, 4)], 64).precision_bits == 64


class TestNoiseFloor:
    @pytest.mark.parametrize("fraction", [1 / 2, 1 / 3, 1 / 4, 1 / 8])
    def test_same_bits_as_a_power_of_two(self, fraction):
        # formed by a shift, the floor is the mpf that mpf(2) ** -k rounds to
        for bits in range(64, 2049):
            with working_precision(bits):
                k = int(bits * fraction)
                assert noise_floor(fraction)._mpf_ == (mpf(2) ** -k)._mpf_


CALLERS = {
    "checked_bits": checked_bits,
    "set_precision": set_precision,
    "working_precision": lambda bits: working_precision(bits).__enter__(),
    "SystemSpec": lambda bits: SystemSpec([legendre(-1, 0, 4)], bits).precision_bits,
}


class TestIntegerBits:
    # no silent truncation: int(100.9) and int(127.9) are 100 and 127
    @pytest.mark.parametrize("bits", [100.9, 127.9, "128", True, None])
    @pytest.mark.parametrize("caller", CALLERS)
    def test_non_integer_rejected(self, caller, bits):
        before = mp.prec
        with pytest.raises(ValueError, match="must be an integer number of bits"):
            CALLERS[caller](bits)
        assert mp.prec == before

    @pytest.mark.parametrize("caller", ["checked_bits", "set_precision", "SystemSpec"])
    def test_integral_float_accepted_as_int(self, caller):
        got = CALLERS[caller](128.0)
        assert got == 128 and type(got) is int

    def test_working_precision_at_an_integral_float(self):
        with working_precision(96.0):
            assert mp.prec == 96


class TestSystemSpecBits:
    def test_bits_are_required(self):
        with pytest.raises(TypeError):
            SystemSpec([legendre(-1, 0, 4)])

    def test_bits_take_part_in_equality(self):
        specs = [legendre(-1, 0, 4), legendre(1, 3, 4)]
        assert SystemSpec(specs, 128) == SystemSpec(specs, 128)
        assert SystemSpec(specs, 128) != SystemSpec(specs, 256)

    @pytest.mark.parametrize("ambient", [53, 256])
    def test_build_system_realizes_at_the_spec_bits(self, ambient):
        # the same atoms whatever mp.prec the caller has set, and mp.prec
        # left as it was
        spec = SystemSpec([legendre(-1, 0, 6), legendre(1, 3, 6)], 128)
        with mp.workprec(128):
            want = build_system(spec)
        mp.prec = ambient
        got = build_system(spec)
        assert mp.prec == ambient
        for g, h in zip(got.generators, want.generators, strict=True):
            assert [x._mpf_ for x in g.nodes] == [x._mpf_ for x in h.nodes]
            assert [w._mpf_ for w in g.weights] == [w._mpf_ for w in h.weights]
        for key in got.chains:
            assert [w._mpf_ for w in got.chains[key].weights] == [
                w._mpf_ for w in want.chains[key].weights
            ]

    def test_a_failed_build_leaves_mp_prec(self):
        spec = SystemSpec([legendre(-1, 0, 4), legendre("-0.5", 3, 4)], 128)
        mp.prec = 53
        with pytest.raises(ValueError, match="overlap"):
            build_system(spec)
        assert mp.prec == 53
