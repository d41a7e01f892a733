"""Golden digests: a fixed input and seed give a byte-identical report.

Each case pins the sha256 of the canonical structured report (the bytes
`wedderburn decompose --format structured` writes).  A case whose algebra
is not semisimple pins the canonical JSON of its certified radical basis
instead.  A digest may change only with a deliberate change of the report
format; any other difference means the arithmetic gave another answer.
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
    "S3 p=5": "e999988d6d629436b2bd72501390a33a915f39a36c30f50b58cd5382848e4b7d",
    "S3 p=5 scrambled": "f1add9e8bc2fbe8bad39b787c673b26d6543b8c26bb7f2954a6080766ce48613",
    "S3 p=7": "f27e02ad451c972428360cafaeb75e5322ccae8c9d844b41ff1be342bd94aefa",
    "S3 p=7 scrambled": "ebce36653dd74a38459642a2bcfe179a168d8d9b96fd070311032287696e163e",
    "S3 p=97": "5ec8cc362cf95367381dcf13e54a885c512ea6519c79b5a1d574377504a5a6ec",
    "S3 p=97 scrambled": "ece7b4fd9d8444e2386bc3b812b313968863cfb45ad3f9cf210c77c878951571",
    "D4 p=3": "72d82fd1e6c1d0414a0eb84556f623bcd378616ef07f6aca9a58d2484945cc51",
    "D4 p=3 scrambled": "df82b9cb74fe3fb6560a1899f3875f619ed7c0499cb44cacae140abfde296d5a",
    "D4 p=5": "dce94448954b3c4052504446eab69b74adbc1b028f2447c5c78dda70363ad708",
    "D4 p=5 scrambled": "f69620eca28d302e27ab89602f929a5acdb694fe52997bd6b00c4673d87806d3",
    "D4 p=7": "00f72f405c1daa3871184c14dcb182d0a7e2600ba8ab2a37b049a6130a07f449",
    "D4 p=7 scrambled": "8e76d4fe5b0f321103ebf5e6d4da216a5e32eaa1f03f5803604ab38a1fd0649a",
    "D4 p=97": "868a3158264cd7b6a1139a823fdfc8c7a9bb18edae431bf3e026f091d7e27af6",
    "D4 p=97 scrambled": "3e6bb07a3f9fd4d470dca8c9536228cf5255f4ff610ca848fb151460a93bb343",
    "Q8 p=3": "eff13d4b8aaea0ef59e24c5a62c851e982f3959bc51f809e0c4b8b0b7e31c32c",
    "Q8 p=3 scrambled": "c3a7b5038119bcecf3d8885ab18ab8f85ca8c8e9175aee9f39cab5fbbdbd22ad",
    "Q8 p=5": "7a29d6cdf150fc40abf880762badf0b7a87be1e6cc4560603b6ec4f6e4f8d86a",
    "Q8 p=5 scrambled": "24679b9c3f224687a0016cd87ead4ac545c3ba0448fd5b983653d9ee32a56373",
    "Q8 p=7": "b903a5c1348cff4df0892034e30ad4ed233a28c7100234d8582a55b2ad2be8f7",
    "Q8 p=7 scrambled": "10c59b247c5f69b3f72e42f511ec21abdf9897aa6317b8406f47599cd7966ffd",
    "Q8 p=97": "3596c730cde7b27d9630a73d5ef18ac58e00cc5b613e726cffe1fce9f93d9372",
    "Q8 p=97 scrambled": "356656333bb37842db3fc5eafdc64e823fa968b1604fb74368b6fb1e2fe6edf0",
    "planted p=7": "149bffe3c768e83dbfb86535c8e4b4dd9ec7a48beef07ef3a01bfadbb39dffc8",
    "planted p=97": "b1ad8e733ede5158024233c1a09d8fa1a1454dfe78fd358f68616c64dda898d3",
    "planted p=2147483647": "d800355546f4299c51632f461b6bf298d792c62ce1e4ef36db4c0242b66e0ed0",
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
