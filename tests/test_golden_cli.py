"""Seeded CLI stdout, recorded byte for byte.

The panel covers a prime field (F_1013), odd extensions (F_243 = F_{3^5},
F_2187 = F_{3^7}), characteristic 2 (F_128) and the large prime field
F_{10^12+39}, two seeds each, plus single lines over F_3125 = F_{5^5},
F_531441 = F_{3^12}, F_65536 and a supersingular curve over F_1024.  A refactor
of the field, curve or order layers must leave every line unchanged: the
counts, the RNG draw order (samples_used, the sampled orders) and the BSGS
annihilators.  An annihilator is the first multiple of the point's order that
the BSGS scan meets, so a point with several multiples of its order in the
Hasse interval (the order lines over F_1013 and F_243 with seed 1, F_128 with
seed 2 and F_2187 with seed 1) changes its annihilator, not its order, when
the scan order changes; test_order_lines_are_annihilators checks each one.

The exception census and the Table 1 report are pinned the same way, from
files in tests/census_stdout/: `exceptions --qmax 1024` in TSV and JSON, with
and without `--corollary` under each `--reading`, and `table1` in both formats.
"""

import json
from pathlib import Path

import pytest

from hassecount import cli
from hassecount.order import hasse_interval

GOLDEN = [
    (
        'count --q 1013 --curve 544,541,80,488,270 --seed 1',
        '{"count":988,"curve":[544,541,80,488,270],"method":"point_order","q":1013,"samples_used":3,"trace":26,"twist_count":1040}\n',
    ),
    (
        'order --q 1013 --curve 544,541,80,488,270 --seed 1 --point 582,575',
        '{"annihilator":1014,"curve":[544,541,80,488,270],"order":26,"point":"582,575","q":1013}\n',
    ),
    (
        'twist --q 1013 --curve 544,541,80,488,270 --seed 1',
        '{"count":988,"curve":[544,541,80,488,270],"q":1013,"twist_count":1040,"twist_curve":[0,139,0,861,778]}\n',
    ),
    (
        'group --q 1013 --curve 544,541,80,488,270 --seed 1',
        '{"count":988,"curve":[544,541,80,488,270],"lambda":988,"n1":1,"n2":988,"q":1013}\n',
    ),
    (
        'count --q 1013 --curve 544,541,80,488,270 --seed 2',
        '{"count":988,"curve":[544,541,80,488,270],"method":"point_order","q":1013,"samples_used":1,"trace":26,"twist_count":1040}\n',
    ),
    (
        'order --q 1013 --curve 544,541,80,488,270 --seed 2 --point 978,752',
        '{"annihilator":988,"curve":[544,541,80,488,270],"order":247,"point":"978,752","q":1013}\n',
    ),
    (
        'twist --q 1013 --curve 544,541,80,488,270 --seed 2',
        '{"count":988,"curve":[544,541,80,488,270],"q":1013,"twist_count":1040,"twist_curve":[0,139,0,861,778]}\n',
    ),
    (
        'group --q 1013 --curve 544,541,80,488,270 --seed 2',
        '{"count":988,"curve":[544,541,80,488,270],"lambda":988,"n1":1,"n2":988,"q":1013}\n',
    ),
    (
        'count --q 243 --curve 80,146,173,216,54 --seed 1',
        '{"count":270,"curve":[80,146,173,216,54],"method":"point_order","q":243,"samples_used":2,"trace":-26,"twist_count":218}\n',
    ),
    (
        'order --q 243 --curve 80,146,173,216,54 --seed 1 --point 145,87',
        '{"annihilator":240,"curve":[80,146,173,216,54],"order":30,"point":"145,87","q":243}\n',
    ),
    (
        'twist --q 243 --curve 80,146,173,216,54 --seed 1',
        '{"count":270,"curve":[80,146,173,216,54],"q":243,"twist_count":218,"twist_curve":[0,173,0,191,230]}\n',
    ),
    (
        'group --q 243 --curve 80,146,173,216,54 --seed 1',
        '{"count":270,"curve":[80,146,173,216,54],"lambda":270,"n1":1,"n2":270,"q":243}\n',
    ),
    (
        'count --q 243 --curve 80,146,173,216,54 --seed 2',
        '{"count":270,"curve":[80,146,173,216,54],"method":"point_order","q":243,"samples_used":1,"trace":-26,"twist_count":218}\n',
    ),
    (
        'order --q 243 --curve 80,146,173,216,54 --seed 2 --point 220,100',
        '{"annihilator":270,"curve":[80,146,173,216,54],"order":270,"point":"220,100","q":243}\n',
    ),
    (
        'twist --q 243 --curve 80,146,173,216,54 --seed 2',
        '{"count":270,"curve":[80,146,173,216,54],"q":243,"twist_count":218,"twist_curve":[0,173,0,191,230]}\n',
    ),
    (
        'group --q 243 --curve 80,146,173,216,54 --seed 2',
        '{"count":270,"curve":[80,146,173,216,54],"lambda":270,"n1":1,"n2":270,"q":243}\n',
    ),
    (
        'count --q 128 --curve 124,101,105,57,57 --seed 1',
        '{"count":108,"curve":[124,101,105,57,57],"method":"point_order","q":128,"samples_used":1,"trace":21,"twist_count":150}\n',
    ),
    (
        'order --q 128 --curve 124,101,105,57,57 --seed 1 --point 34,10',
        '{"annihilator":108,"curve":[124,101,105,57,57],"order":54,"point":"34,10","q":128}\n',
    ),
    (
        'twist --q 128 --curve 124,101,105,57,57 --seed 1',
        '{"count":108,"curve":[124,101,105,57,57],"q":128,"twist_count":150,"twist_curve":[1,57,0,0,109]}\n',
    ),
    (
        'group --q 128 --curve 124,101,105,57,57 --seed 1',
        '{"count":108,"curve":[124,101,105,57,57],"lambda":108,"n1":1,"n2":108,"q":128}\n',
    ),
    (
        'count --q 128 --curve 124,101,105,57,57 --seed 2',
        '{"count":108,"curve":[124,101,105,57,57],"method":"point_order","q":128,"samples_used":3,"trace":21,"twist_count":150}\n',
    ),
    (
        'order --q 128 --curve 124,101,105,57,57 --seed 2 --point 43,115',
        '{"annihilator":126,"curve":[124,101,105,57,57],"order":6,"point":"43,115","q":128}\n',
    ),
    (
        'twist --q 128 --curve 124,101,105,57,57 --seed 2',
        '{"count":108,"curve":[124,101,105,57,57],"q":128,"twist_count":150,"twist_curve":[1,57,0,0,109]}\n',
    ),
    (
        'group --q 128 --curve 124,101,105,57,57 --seed 2',
        '{"count":108,"curve":[124,101,105,57,57],"lambda":108,"n1":1,"n2":108,"q":128}\n',
    ),
    (
        'count --q 2187 --curve 1403,1848,1574,772,2030 --seed 1',
        '{"count":2279,"curve":[1403,1848,1574,772,2030],"method":"point_order","q":2187,"samples_used":2,"trace":-91,"twist_count":2097}\n',
    ),
    (
        'order --q 2187 --curve 1403,1848,1574,772,2030 --seed 1 --point 550,594',
        '{"annihilator":2193,"curve":[1403,1848,1574,772,2030],"order":43,"point":"550,594","q":2187}\n',
    ),
    (
        'count --q 2187 --curve 1403,1848,1574,772,2030 --seed 2',
        '{"count":2279,"curve":[1403,1848,1574,772,2030],"method":"point_order","q":2187,"samples_used":1,"trace":-91,"twist_count":2097}\n',
    ),
    (
        'order --q 2187 --curve 1403,1848,1574,772,2030 --seed 2 --point 231,992',
        '{"annihilator":2279,"curve":[1403,1848,1574,772,2030],"order":2279,"point":"231,992","q":2187}\n',
    ),
    (
        'count --q 1000000000039 --curve 827942781244,548043483172,536578488994,837806260421,126547878959 --seed 1',
        '{"count":999998897026,"curve":[827942781244,548043483172,536578488994,837806260421,126547878959],"method":"point_order","q":1000000000039,"samples_used":1,"trace":1103014,"twist_count":1000001103054}\n',
    ),
    (
        'order --q 1000000000039 --curve 827942781244,548043483172,536578488994,837806260421,126547878959 --seed 1 --point 623347347957,297320543123',
        '{"annihilator":999998897026,"curve":[827942781244,548043483172,536578488994,837806260421,126547878959],"order":999998897026,"point":"623347347957,297320543123","q":1000000000039}\n',
    ),
    (
        'count --q 1000000000039 --curve 827942781244,548043483172,536578488994,837806260421,126547878959 --seed 2',
        '{"count":999998897026,"curve":[827942781244,548043483172,536578488994,837806260421,126547878959],"method":"point_order","q":1000000000039,"samples_used":1,"trace":1103014,"twist_count":1000001103054}\n',
    ),
    (
        'order --q 1000000000039 --curve 827942781244,548043483172,536578488994,837806260421,126547878959 --seed 2 --point 936078791291,253904137375',
        '{"annihilator":999998897026,"curve":[827942781244,548043483172,536578488994,837806260421,126547878959],"order":499999448513,"point":"936078791291,253904137375","q":1000000000039}\n',
    ),
    (
        'count --q 3125 --curve 1,2,3,4,5 --seed 1',
        '{"count":3154,"curve":[1,2,3,4,5],"method":"point_order","q":3125,"samples_used":1,"trace":-28,"twist_count":3098}\n',
    ),
    (
        'count --q 531441 --curve 1,2,3,4,5 --seed 1',
        '{"count":532171,"curve":[1,2,3,4,5],"method":"point_order","q":531441,"samples_used":1,"trace":-729,"twist_count":530713}\n',
    ),
    (
        'count --q 65536 --curve 1,0,0,0,1 --seed 1',
        '{"count":65088,"curve":[1,0,0,0,1],"method":"point_order","q":65536,"samples_used":1,"trace":449,"twist_count":65986}\n',
    ),
    (
        'twist --q 1024 --curve 0,0,1,0,0',
        '{"count":1089,"curve":[0,0,1,0,0],"q":1024,"twist_count":961,"twist_curve":[0,0,1,0,128]}\n',
    ),
]


@pytest.mark.parametrize("argv,stdout", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_cli_stdout_unchanged(capsys, argv, stdout):
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out == stdout


def test_order_lines_are_annihilators():
    """Every order line's annihilator is a multiple of its order inside the
    Hasse interval of its q."""
    lines = [json.loads(stdout) for argv, stdout in GOLDEN if argv.startswith("order ")]
    assert len(lines) == 10
    for line in lines:
        interval = hasse_interval(line["q"])
        assert line["annihilator"] % line["order"] == 0 and line["annihilator"] in interval, line


CENSUS_STDOUT = Path(__file__).resolve().parent / "census_stdout"
CENSUS = [
    ("exceptions --qmax 1024", "exceptions.tsv"),
    ("exceptions --qmax 1024 --format json", "exceptions.json"),
    *(
        (f"exceptions --qmax 1024 --corollary --reading {reading}{flag}", f"exceptions_corollary_{reading}.{ext}")
        for reading in ("qm1", "mn", "mn_qm1")
        for flag, ext in (("", "tsv"), (" --format json", "json"))
    ),
    ("table1", "table1.tsv"),
    ("table1 --format json", "table1.json"),
]


@pytest.mark.parametrize("argv,name", CENSUS, ids=[a for a, _ in CENSUS])
def test_census_stdout_unchanged(capsys, argv, name):
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out == (CENSUS_STDOUT / name).read_text()
