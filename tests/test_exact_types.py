"""Library constructors take integers exactly: a float, a bool or a digit
string is an error, never coerced."""

import pytest

from fibcalc.errors import MalformedInputError
from fibcalc.laurent import LaurentPoly
from fibcalc.matrices import IntMatrix
from fibcalc.mcg import CurveSpec
from fibcalc.two_knot import FillingDescriptor
from fibcalc.words import FreeGroupMap, FreeWord

PROBES = {
    "word letters": lambda: FreeWord(2, (1.0, True, "2")),
    "word float letter": lambda: FreeWord(2, (1.0,)),
    "word bool letter": lambda: FreeWord(2, (True,)),
    "word string letter": lambda: FreeWord(2, ("2",)),
    "word bool rank": lambda: FreeWord(True, (1,)),
    "word float rank": lambda: FreeWord(2.0, (1,)),
    "word float shift": lambda: FreeWord(1, (1,)).shift(2.0),
    "word float power": lambda: FreeWord(1, (1,)) ** 1.5,
    "map bool rank": lambda: FreeGroupMap(True, (FreeWord(1, (1,)),)),
    "map float identity": lambda: FreeGroupMap.identity(2.0),
    "map float power": lambda: FreeGroupMap.identity(2).power(1.5),
    "map bool power": lambda: FreeGroupMap.identity(2).power(True),
    "map float extend": lambda: FreeGroupMap.identity(2).extend(3.0),
    "map float letters": lambda: FreeGroupMap.from_letters(1, [[1.0]]),
    "matrix rows": lambda: IntMatrix.from_rows([[1.7, True], ["3", 2]]),
    "matrix bool entry": lambda: IntMatrix.from_rows([[True]]),
    "matrix float entry": lambda: IntMatrix(1, 1, ((1.0,),)),
    "matrix bool rows": lambda: IntMatrix(True, 1, ((1,),)),
    "laurent terms": lambda: LaurentPoly(((0.9, 2.5), (1, "4"))),
    "laurent bool coefficient": lambda: LaurentPoly(((0, True),)),
    "laurent float exponent": lambda: LaurentPoly(((1.0, 1),)),
    "laurent float zero term": lambda: LaurentPoly(((1.5, 0),)),
    "curve float class": lambda: CurveSpec(1, (1.0, 0)),
    "curve bool class": lambda: CurveSpec(1, (True, 0)),
    "curve string class": lambda: CurveSpec(1, ("1", 0)),
    "slope float": lambda: FillingDescriptor("Y", (1.5, 2)),
    "slope triple": lambda: FillingDescriptor("Y", (1, 2, 3)),
    "slope bool": lambda: FillingDescriptor("Y", (True, 0)),
    "slope string": lambda: FillingDescriptor("Y", ("1", 2)),
    "slope int": lambda: FillingDescriptor("Y", 3),
}


@pytest.mark.parametrize("build", PROBES.values(), ids=PROBES.keys())
def test_constructor_rejects_non_integers(build):
    with pytest.raises(MalformedInputError):
        build()


def test_integer_inputs_still_build():
    assert FreeWord(2, [1, -2, 2]).letters == (1,)
    assert IntMatrix.from_rows([[1, 0], [0, 1]]) == IntMatrix.identity(2)
    assert IntMatrix(1, 2, [[3, -4]]).entries == ((3, -4),)
    assert LaurentPoly(((2, 1), (0, -1), (1, 0))).terms == ((0, -1), (2, 1))
    assert CurveSpec(1, [1, 0]).homology_class == (1, 0)
    assert FillingDescriptor("Y", [-1, 3]).slope == (-1, 3)
