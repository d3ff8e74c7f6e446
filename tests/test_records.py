import pytest

from covereval.cover import CommunityGraph
from covereval.distfit import FitReport, Family, FittedDistribution, InapplicableFit
from covereval.graph import EmpiricalDistribution, Graph, HopSummary
from covereval.pipeline import EvaluationReport, RunConfig, _CoverEval
from covereval.ranking import DistributionRanking, KemenyResult, RankingTable, TopsisResult

FIT = FittedDistribution(Family.NORMAL, (0.0, 1.0), ks=0.1, n=5)
CGRAPH = CommunityGraph(Graph(1, [], ["0"]), n_communities=2, degenerate=True)

# one instance of each record of the package
RECORDS = [
    CGRAPH,
    HopSummary(EmpiricalDistribution([1, 1, 2])),
    FIT,
    InapplicableFit(Family.CAUCHY, "one value holds half the samples"),
    FitReport((FIT,), FIT),
    RankingTable(("a", "b"), ("c",), ((1,), (2,))),
    DistributionRanking({"a": 1}, "N", FIT, {"a": 0.1}),
    KemenyResult(("a",), {"a": 1}, 0, True),
    TopsisResult({"a": 0.5}, {"a": 1}),
    RunConfig("net.txt", "gt.txt", (("a", "a.txt"),)),
    EvaluationReport({"notes": []}),
    _CoverEval(CGRAPH, {}, {}, {}),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):  # nor can an attribute be added
        record.extra = None
