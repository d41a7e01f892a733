"""Golden digests: a fixed input and seed give a byte-identical report.

Each case pins the sha256 of the canonical structured report (the bytes
`wedderburn decompose --format structured` writes).  A case whose algebra
is not semisimple pins the canonical JSON of its certified radical basis
instead.  A digest may change only with a deliberate change of the report
format, or with a deliberate change of the search that picks other
idempotents or connecting elements (the block multiset and the proof stay
the same); any other difference means the arithmetic gave another answer.
The radical's RREF basis is canonical, so the non-semisimple digests move
with neither.
"""

import hashlib

import pytest

from wedderburn import (
    build_planted,
    cayley_fixture,
    full_isomorphism,
    group_algebra,
    result_to_doc,
    scramble,
    verify_isomorphism,
)
from wedderburn.cli import canonical_json
from wedderburn.errors import NotSemisimple

GROUPS = ["C2", "C3", "C4", "S3", "D4", "Q8"]
GROUP_PRIMES = [3, 5, 7, 97]
PLANTED_SPEC = [(2, 1), (1, 2), (1, 1)]
PLANTED_PRIMES = [7, 97, 2**31 - 1]


def report_digest(A):
    try:
        res = full_isomorphism(A, seed=0)
    except NotSemisimple as exc:
        doc = {"radical_basis": [row.tolist() for row in exc.radical_basis]}
    else:
        rep = verify_isomorphism(A, res)
        assert rep.passed, rep.failures
        doc = result_to_doc(res, rep)
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def group_case(name, p, scrambled):
    A = group_algebra(cayley_fixture(name), p)
    return scramble(A, seed=1)[0] if scrambled else A


def planted_case(p):
    return scramble(build_planted(PLANTED_SPEC, p).algebra, seed=1)[0]


GOLDEN = {
    "C2 p=3": "b3ff58accac892804debd7c85ca0f71a6a5c421234b4eefa467383d5f8a06936",
    "C2 p=3 scrambled": "c5d96672af28436f2b2af18ad05cce4d4399ca45bc92c6149247cbf19e63314c",
    "C2 p=5": "857afe6ecf6e90e2431fdb5b25cf713286ea5e8951c1b2bbbb54942f03c14143",
    "C2 p=5 scrambled": "85ea0207b05c01a1cb7db0ef11351c83cf7fc524137e0c8e35433de2612ba2e9",
    "C2 p=7": "01f2e4bda1f61d5711fc8968387d8ac684188ff3a63e08d8f0f6d331618d9f51",
    "C2 p=7 scrambled": "e71dbe494fdb57ed2932b1f33a71fea977a87c4b4326e4ab263c348b1d3c1140",
    "C2 p=97": "40957f84d7195ce331259739d98d985e9ab8a208c2c68fab7ab387eb34f4fb85",
    "C2 p=97 scrambled": "f1da99552634f2d4bc73b690cb23d61c89da1f50c854cdfadf06ad822f6156f6",
    "C3 p=3": "62cd293f7952c5ed3bec0b122eea11472c6df79c2b8824a1781e438490eaef01",
    "C3 p=3 scrambled": "062510b7c644ccc3644b61ef33b2e56949c28eca8d1702a2cfa17014d3c14d48",
    "C3 p=5": "3a62160cd8ca24ee617be3eddd9a9712a4ba4bcc0b083b582a9e1a1822da49e2",
    "C3 p=5 scrambled": "f0e88ee4e54a9db7a4b86bd21e5743cca51a23cfc211b63f4372e25d56969732",
    "C3 p=7": "4ee6438b3984098a0a7fe676ed37bdd6b35a3acfa9d9923e48bc8d0c5da6fae1",
    "C3 p=7 scrambled": "ed323276851229486ae6e06aad723e0d1e0821e6902cd36f2c9b7926ef5b5b44",
    "C3 p=97": "675fafc77053784d812fdc7576f86c063f042915f0fd18be8e394605d78ae0c6",
    "C3 p=97 scrambled": "61be82303c85d78a988ed1105349b1b6975a547b6817dcafdf9744880abdb947",
    "C4 p=3": "f2944597f97af59270bdf3df322dc9d843cae93af7b77626ae394a7cfa13ca54",
    "C4 p=3 scrambled": "26151b8ab4192d880f4958dad962a48afe3dfcb6b92bf37687a6b132e83e0ff0",
    "C4 p=5": "f6acc928250968dbceb4fcc1f368d8db83588500032563e06ec2b1843bbbeea6",
    "C4 p=5 scrambled": "a752842eaf2b80c80acb221645f66dd76d47498ac6c0c2ba69f0279b7d65377c",
    "C4 p=7": "b81a4e996e0f38634a069a1202fb2f030149e346be3c5d41b89697e824210455",
    "C4 p=7 scrambled": "e4b7e9662822e0744738c62bcfe9110409d47fe48f522072b3f48fd3700c1867",
    "C4 p=97": "d119b31b2ae64b0fd91deaa0ddfc4b8a4d9cd9cd9beaa9191c8f298689ee4d34",
    "C4 p=97 scrambled": "48448901a944b314bc79a7c44aa6016ac8f2bc7a0bf7de42c474ad84ca523efe",
    "S3 p=3": "a3fe279f971d246a9563e0a8781f1f6f41753a5e21b5b4acbb1cf37015109c5f",
    "S3 p=3 scrambled": "769ad08e053931f987d07b74f77bc2215e4e8c990e965043f64a50307107a57a",
    "S3 p=5": "6fb7a82acb0d6d31ba6bec5a60005bfad453438cd6690b2783a40c861d007776",
    "S3 p=5 scrambled": "40b4f0eb1ece69406e66fef3f7bd4054ba5aa682c32f2d596ef675bc6637c038",
    "S3 p=7": "b01590a194ed47e09588b524d25a580223d758d9b86689ed04f32e0adaf948ff",
    "S3 p=7 scrambled": "93fb7755c8d4a30d7c177e11327fa07b5e2bdcfe407fd7952679fde20dde70a1",
    "S3 p=97": "f2d1c7c68e536ae0950d4b357a098e60301d19ea598fa4f218ba7088a54183fe",
    "S3 p=97 scrambled": "4de8542ed0b91bd47b9dd6e1218b19052bcfffe87d61e2dfd9aac94512263b54",
    "D4 p=3": "3ba20698c544509fee01bc344eeed8a7a84387b7d29975be4d0c823eec16d7cb",
    "D4 p=3 scrambled": "f01d587a5aeb4f79b46e108d33ae068dde9e27999f13128cafc927e0e2549a6e",
    "D4 p=5": "bd91895cf9df763ce8b422bbc93820488324f750fedfa921d1500cd701d2490b",
    "D4 p=5 scrambled": "261fdfa52040c968244c59ca0567d61ee18ccc2c4397524f2e11b4344be251f4",
    "D4 p=7": "3a80b994acd60281a894a20e93046019cfe1a444a3ac5d24023ae7c7ef603653",
    "D4 p=7 scrambled": "5aceb6854e38d0a21cd947c0f7ec6505e1692d4008c06f143945f6aaed6f1027",
    "D4 p=97": "24ebdee17a391c2672b2e5943e3bd07d0fdc88cfcb38d50591eb101daf0f0741",
    "D4 p=97 scrambled": "6b446df87249fc97ae29db4407ee11c6a0dde6be3d7d4747c35dc2cfdb69a27a",
    "Q8 p=3": "008ee1e018fc85f71e929c7fa669abf8eb28ce474b169236ac0efe264ef8f5f2",
    "Q8 p=3 scrambled": "eefa3fd231af7ad471552c1d2e02a083eb7225c67bdd87c6c0afecc5f11cddd5",
    "Q8 p=5": "1c6b2082c5e83ad82cd59bacd27121744dfadcdc1daf374f0a116c7d1496d611",
    "Q8 p=5 scrambled": "4027b652286bdac53f949bee549ad9ac6f0af597f1c23663a46a21582364e2d8",
    "Q8 p=7": "368302bafc854286ba83aea34cfefe8b86c1632e1da3a7dd75d0fe8632c00eb8",
    "Q8 p=7 scrambled": "2b53719f1cf201c4a1c82d0fe181dde9c4a8e86aa87f5bd18f2b8fc0a5858f92",
    "Q8 p=97": "89db10ad761e1d7fc465b4a35fe5391a1593fa5f70a338db6d054e6930e2cbc7",
    "Q8 p=97 scrambled": "2688f90fa4d79af998c025734b1ee89006260e54bff2641488c6d72c03505893",
    "planted p=7": "fdbe0e4cc17849d6e0f7d5b89a9e601aeb69936ae666dc73a25c8cca5c9df12f",
    "planted p=97": "0f7ce45259618a093025ea716d57b77d6520c64232db8db57d05362ca4046eb9",
    "planted p=2147483647": "087d23ccc47572c391d8f73f1c47f760c17f740c3a43662f1d3f7f19e6592676",
}


@pytest.mark.parametrize("name", GROUPS)
@pytest.mark.parametrize("p", GROUP_PRIMES)
@pytest.mark.parametrize("scrambled", [False, True])
def test_group_report_digest(name, p, scrambled):
    key = f"{name} p={p}{' scrambled' if scrambled else ''}"
    assert report_digest(group_case(name, p, scrambled)) == GOLDEN[key]


@pytest.mark.parametrize("p", PLANTED_PRIMES)
def test_planted_report_digest(p):
    assert report_digest(planted_case(p)) == GOLDEN[f"planted p={p}"]
