"""Byte-identity gate for the CLI on fixed inputs.

``gen``, ``construct -o --report``, ``verify --json`` and
``construct --greedy -o`` run on a random graph with n=300 (p=0.1, seed 5:
max degree 45, the pipeline's colouring is kept and every large-large edge
is risky). The sha256 of every file and stdout they write must equal the
digest recorded before the array rewrite of properize and compute_risky, or,
for ``construct --greedy``, before greedy_nsd moved onto edge runs and a
sweep over tied vertices only.

The exact, lemma and experiment paths have digests recorded before every
neighbourhood was read through ``Graph.incidences``: ``exact --json
--witness`` on a 6-vertex random graph, ``sweep`` over ``connected<=4``,
``lemma --slack 1`` on the same n=300 graph (three stage-one resampling
rounds, so ``event_scope`` runs) and an exact-solver experiment over
``complete:2..5`` and ``cycle:3..7``. ``sweep`` over ``connected<=5`` has
a digest recorded before the exact search became iterative. ``exact --json``
on the 6-vertex graph and on K5 (4,318 nodes) print the node count, so their
digests were recorded again when the search began at each component's
proved lower bound; the witness, the sweeps and the experiment kept theirs.
Both exact digests on the 6-vertex graph were recorded again when each
component's search began to run from its smallest vertex of largest degree
and stopped pinning that root's colour: it prints 44 nodes where it printed
46, and its witness is the one found from vertex 2 (1-based, degree 4), not
vertex 1. K5, the sweeps and the experiment kept theirs. The ``construct --report`` digest was recorded again when each
attempt stopped reporting ``relifts`` and ``reserve_grew``, which were always
0 and false; every other line of the report kept its bytes.

Two digests were recorded before the risk window moved into
``LemmaParams``: the ``--report`` of ``construct --span-cap 145`` (3Δ+10)
on the n=300 graph, whose attempt stops at its band floor (445) and records
its slack and floor, and a construct experiment whose spec gives the
integer ``"slack": 2``, over ``complete:1..6`` (an edgeless graph first)
and two n=300 random graphs. ``lemma --graph`` without ``--delta`` must
print the bytes of the ``lemma`` run that gives it.

A change that moves any of these bytes has changed the colouring, the
report or the file format; record new digests only for a change that means
to.
"""

import contextlib
import hashlib
import io

import pytest

from nsdcolour.cli import main

DIGESTS = {
    "graph": "0246bf076b8a9339db89c04072681df77b42a650e5485cb731f7293e694fd888",
    "colouring": "0c54edc3178c0716689bbc27ec81ec058df3992068e82426d12dea6535675f43",
    "report": "da2f179c4f2f1e5b2e42f4ff237a4f028f107eaa4fbaec38628df61f32414256",
    "construct stdout": "c95eaf61952d5b1c5fb44f06026a1dbea9ebb6e77303f8a19dcfb7afb41411d6",
    "verify --json stdout": "161a21f64bed8c387e0075d52765e051b2cd6bd003c3223d65303870bdce6b60",
    "greedy colouring": "3a952b667817b151589de61675a811985abe25e8798679aca0bec489757cc690",
    "construct --greedy stdout": "75ceda62b3df18ee9676104fe3aa2ed04b69c5a850030350fee99fd640a3c2f3",
    "exact --json stdout":
        "9ca5909d5b4ed779750d6620501a4ab83a06e54687042912c901d6bccbba1e66",
    "exact witness":
        "b32db266346602c127ac61850efdd2e5f85fa4fcc8bc588d5ecee7fad7a4ab33",
    "sweep connected<=4":
        "f0c92c8810c36e5a152bd0c37c1368130369189cc43ae3130748edcb64713e0e",
    "lemma stdout":
        "a4e4f1b5638927ded8352b2bd543b7c067f390bd8d48253fde78ec9cc83f03a0",
    "exact experiment csv":
        "1aac655b32cb05b9177d3c35b76ae9d63d67219ad53625bd7f78e7dee9701a15",
    "exact experiment summary":
        "eb069abed49cb354fc29d62c62980aa2db10589c4c9fcce1d3f688473413dfd5",
    "exact K5 --json stdout":
        "e630074c545141adb2da2c456435cbf0f75c88e10e33bf41e6fb5792fb284834",
    "sweep connected<=5":
        "f2ce290c2f7b1d79919391ef8252704074f344fb19fd2fc8049fa19dbaffdea3",
    "construct --span-cap report":
        "43489f62d1dec988b4e2a326f79851cd1a1a2059d786510c9f4350defe20ada0",
    "construct experiment csv":
        "7182042da24e15244b5427f465eb84be7739997bb85e60a29f3d2d9375ea78fa",
    "construct experiment summary":
        "5b2796a42e4eebc1ecb8dbaec853aab1b547bdf0a1851c4c7dfc9c655f62525d",
}

EXACT_SPEC = ('{"name": "exact-small", "seed": 0, "solver": "exact", '
              '"families": ["complete:2..5", "cycle:3..7"]}')
CONSTRUCT_SPEC = ('{"name": "construct-int-slack", "seed": 0, '
                  '"solver": "construct", "slack": 2, "families": '
                  '["complete:1..6", "random:n=300,p=0.1,seeds=2"]}')


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    graph, col, report = d / "g.graph", d / "g.col", d / "r.json"
    greedy = d / "greedy.col"
    small, witness = d / "g6.graph", d / "g6.col"
    sweep, spec = d / "sweep.csv", d / "spec.json"
    k5, sweep5 = d / "k5.graph", d / "sweep5.csv"
    csv, summary = d / "exp.csv", d / "exp.json"
    capped, cspec = d / "capped.json", d / "cspec.json"
    ccsv, csummary = d / "cexp.csv", d / "cexp.json"
    spec.write_text(EXACT_SPEC)
    cspec.write_text(CONSTRUCT_SPEC)
    got = {}

    def run(argv, name=None):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        assert rc == 0, argv
        if name:
            got[name] = buf.getvalue().encode()

    run(["gen", "--kind", "random", "--n", "300", "--p", "0.1", "--seed", "5",
         "-o", str(graph)])
    run(["construct", str(graph), "-o", str(col), "--report", str(report)],
        "construct stdout")
    run(["verify", str(graph), str(col), "--json"], "verify --json stdout")
    run(["construct", str(graph), "--greedy", "-o", str(greedy)],
        "construct --greedy stdout")
    run(["construct", str(graph), "--span-cap", "145", "--report",
         str(capped)])
    run(["gen", "--kind", "random", "--n", "6", "--p", "0.5", "--seed", "3",
         "-o", str(small)])
    run(["exact", str(small), "--json", "--witness", str(witness)],
        "exact --json stdout")
    run(["sweep", "--family", "connected<=4", "-o", str(sweep)])
    run(["gen", "--kind", "complete", "--n", "5", "-o", str(k5)])
    run(["exact", str(k5), "--json"], "exact K5 --json stdout")
    run(["sweep", "--family", "connected<=5", "-o", str(sweep5)])
    run(["lemma", "--delta", "45", "--graph", str(graph), "--slack", "1"],
        "lemma stdout")
    run(["lemma", "--graph", str(graph), "--slack", "1"],
        "lemma stdout without --delta")
    run(["experiment", str(spec), "--csv", str(csv), "--summary", str(summary)])
    run(["experiment", str(cspec), "--csv", str(ccsv),
         "--summary", str(csummary)])
    got.update(graph=graph.read_bytes(), colouring=col.read_bytes(),
               report=report.read_bytes())
    got["greedy colouring"] = greedy.read_bytes()
    got["exact witness"] = witness.read_bytes()
    got["sweep connected<=4"] = sweep.read_bytes()
    got["sweep connected<=5"] = sweep5.read_bytes()
    got["exact experiment csv"] = csv.read_bytes()
    got["exact experiment summary"] = summary.read_bytes()
    got["construct --span-cap report"] = capped.read_bytes()
    got["construct experiment csv"] = ccsv.read_bytes()
    got["construct experiment summary"] = csummary.read_bytes()
    return got


@pytest.mark.parametrize("name", list(DIGESTS))
def test_output_bytes_unchanged(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == DIGESTS[name]


def test_lemma_graph_needs_no_delta(outputs):
    # the graph's max degree replaces --delta, so leaving it out changes
    # no byte
    assert outputs["lemma stdout without --delta"] == outputs["lemma stdout"]
