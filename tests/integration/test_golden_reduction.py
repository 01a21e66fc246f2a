"""Frozen digests of Steps 2 and 3 on the quick suite.

Each case's Step-2 constraint pairs and Step-3 row arrays hash to a fixed
sha256, recorded when the reduction was known to be right (every quick
program verified with these pairs and rows).  A change to either step that
moves a coefficient, a name, a row or a term's place fails here, without a
hand-kept reference implementation to compare with.  The options are the
ones the benchmark's requests carry: upsilon=1, one Putinar case per quick
program, and Handelman on three.

* Pairs: each pair's name, then each polynomial (assumptions, conclusion)
  as ``(monomial items, numerator, denominator)`` in term order.
* Rows: the name table, the pool as integer pairs, and the dtype and bytes
  of ``kinds``, ``term_row``, ``term_a``, ``term_b`` and ``term_coeff``.

Digests do not depend on ``PYTHONHASHSEED``.  When a change is meant to
move them, say why in its description and record the new values.
"""

import hashlib

import pytest

from repro.invariants.synthesis import build_task
from repro.suite.registry import get_benchmark

#: (program, translation) -> (pairs digest, rows digest).
GOLDEN = {
    ("sum", "putinar"): ("3aea462752144e63ef48d2d3d7a015583a8a25b2dca214c3fb1e2abc5f52abbd", "66a477f4a84baca4cb672dd41c974f41ac505f237a0dd19a2eaa8757de51bdf7"),
    ("cohendiv", "putinar"): ("d875829b01148a7b9a1a2b7ae34a0385a7546b441892bf1938b2e723be1883d6", "53670b45d967786eceff9be28c2ba5b5d694959598a0949417f83dc5f0ea0138"),
    ("divbin", "putinar"): ("266a4c0015902c93d7e3d5e97e0de2d212196891bf4245c393067fbe979d9afd", "007f762b0f7ce3702cd05635ec67dde7cfd555c0b828869a9f82c63aa8967cb2"),
    ("hard", "putinar"): ("b9c8fc2dae22bd8c4ef28fa8d868409c44fd1a1a6a86bacff981e0057ac4df50", "d118a7fd6c5cc3aaca901f0ce9472b68cab42b79237f4b294b47b69d5b240e21"),
    ("mannadiv", "putinar"): ("793354d37c0d1c127a90ed10755673f96895e3afbdbff73125b0fafabbb15d31", "c03ae9cf75156b57d6aef2a5e41aebf59ed3c3dda12453866476b2f3a038c835"),
    ("wensley", "putinar"): ("bdaa9c7abba626b07cb5546b0eeb3b62a601b6963facdd4f054117d3c4ab3f4f", "b4c1aaf348a9a8faed38497bd3fac2f0de9fc0ed7ed159c82bba7efa931db4fd"),
    ("sqrt", "putinar"): ("12795ab3d7206f478b06f1580ddf413a1fd01f64ba866ecde67a394ddc530910", "8b9409c8674bf0b296fc5e9470b9bd14a9a6dbff3eb36402d23662cb1ffe34bd"),
    ("dijkstra", "putinar"): ("c66b1fafb89d4afe328107c2a68e4c73cc58bc58797e5ba6fcc3ffac71b7bce3", "2727ed5670c6333463f529c23d86bc543207561059491763cd08ba4f1f44b91d"),
    ("z3sqrt", "putinar"): ("e44a2bc193312fb87f8dff083a1b2212dd9a951db198835de90ee9d8994409f6", "f9ae02899b757b698789144997f65e72f3fa74b098f0177c20cdcb8348b8af88"),
    ("freire1", "putinar"): ("97f94ec74da088e3f14f9624ff6db7f897b2bbc0e575c2de437816b478146886", "9b8be86ceec6821a06244ad54530742f4a1cfabc21f5dc19de4328ffbeea81da"),
    ("freire2", "putinar"): ("6022eae74c78203bd78ed83811b72235c49bb373bc2b00550d0846163035859c", "6c70e87264cb59d2532ac8d95800e5e8f0ee30d66758156a17421a0ce649cf54"),
    ("euclidex2", "putinar"): ("c6d4e4bfd53edf2f5114ba050b025109172f99b07ceba05ce38554a8ae0cf9ff", "3df5b74253fefb29e18ad7dd97e41350ad9370fb751841da9102f7feeabcab18"),
    ("lcm1", "putinar"): ("494c2932b34a605b71cafb0b77f959087e4eaa3f04a6394259b942a2eef959a8", "9e366ad8bf344f11ba4af51597adddc3a545c2aab58e2f4d5c50b031f2c85d8a"),
    ("lcm2", "putinar"): ("440ad593f2454db78d0187b77d1a4bd8935ab69b8455fe76dc8b7b4494fcf375", "7717d59525f2ff1724abb9a622fdc9165c2f1961be2423c544c6dcb4ed8a91b5"),
    ("prodbin", "putinar"): ("1a130e390e49dc5f2219e80db71d6e43f6e103554914364ae7ab6282c689874b", "56f770bcf6e754584c6fe7ec273adf9d6862439a7c59e2a71d4809afd0f44aac"),
    ("prod4br", "putinar"): ("56305b9b25c7ac8c80a19350c12bb21e35e6928ded8aa6715f34e2abc14a72b4", "fe45953ff1d79f232537395ba06858b78d806fcd07a2f155ce048be1a60280b4"),
    ("cohencu", "putinar"): ("113525d7ca140671efac39326b96c32b3dcfd8fc0f0b4d071c10b7fa8e322099", "7fd54af5b4b4b26301bb60767d798d595603ca3fb377c0118d3541833f208f18"),
    ("petter", "putinar"): ("92aa73817387dabb46e72019363ba41922da5c95c7ff7165ac8d01fd6deb4039", "9aa60785c2fb5618fa8477b46582cf9d3a61426660a468b4d78b28e75d6729e7"),
    ("inverted-pendulum", "putinar"): ("dfc10cec559a9fb79f87bd4e9096c2775f4e4922e982962de17124cb6e528e7d", "340edfa72572a0082bfd4db14acab2075b9adbfd2ecf10bef2093ab192ba38a2"),
    ("strict-inverted-pendulum", "putinar"): ("220671162e7d02927dcec768de4a54101bb0d3d79c0878a3c639bd6270bd6128", "95cc2e4a715ed8ab093eaf3b854656fdb24a62e57d96ef26f516b43716d84a97"),
    ("oscillator", "putinar"): ("6df678eaf50d4a3f6173095664073bbf6fba715aaddef19e4c1e6eeb49281c61", "a69acb1516fb626e8e2d882dc78a9519528e7d1c6cb22a7a6912612bba40a168"),
    ("recursive-sum", "putinar"): ("1e53e116e7d7e572f038f0fb32aba4297d8186be0ebc451cc19c0dc7e9909f25", "3d589feaeb821005b76ea411a56c606fe8ea172a298a2e912ed525cd69f371ff"),
    ("recursive-square-sum", "putinar"): ("170a0173bcb0aff225f9b283617b2bb28743217f315b0a1a35cb4f3b7b826913", "1605250d93364c790588cdb93c0917efcf194b1c029369913c1c954065e10b52"),
    ("recursive-cube-sum", "putinar"): ("6540806e7c8c14d6b091e76f077bb5e8c643744e6679365f973f5dd656fb618c", "0ca4da49685ec721d59483fbf641647e9d75897b51bbd47073a7cd6d0249c747"),
    ("pw2", "putinar"): ("e782d44333a3f4d2ee0952656d9df4cedcb658505458a1bbbc7013d2417d7565", "3c71a912fa5460b5102bc99655b388c30910f9e9d69d54a9682210f776d1cb0e"),
    ("merge-sort", "putinar"): ("adbf0935961180c151a1e53bca3ce7c888855fefd457766a1ab52fb188aacc0b", "09dbcd667c2f1d63e8e43a8fbfdec638650e450022ceda2a88cb26bcf00f7d21"),
    ("sum", "handelman"): ("3aea462752144e63ef48d2d3d7a015583a8a25b2dca214c3fb1e2abc5f52abbd", "34c7302fb1ccca6f2fefe17cd069cca4f31a65a7ad2ef4f3cce6f75f637441cd"),
    ("cohencu", "handelman"): ("113525d7ca140671efac39326b96c32b3dcfd8fc0f0b4d071c10b7fa8e322099", "d3cb4f2f829921a2f57c307ca3f846875fbf8ebb576309f5dab0880c293a0244"),
    ("merge-sort", "handelman"): ("adbf0935961180c151a1e53bca3ce7c888855fefd457766a1ab52fb188aacc0b", "7468aaecc4f87950ef8679a92159121567ddcc495f50ae54edaadf24000fb4ce"),
}


def pairs_digest(pairs) -> str:
    digest = hashlib.sha256()
    for pair in pairs:
        digest.update(repr(pair.name).encode())
        for polynomial in (*pair.assumptions, pair.conclusion):
            terms = tuple((m.items, c.numerator, c.denominator) for m, c in polynomial.items())
            digest.update(repr(terms).encode())
    return digest.hexdigest()


def rows_digest(rows) -> str:
    digest = hashlib.sha256()
    digest.update(repr(rows.names).encode())
    digest.update(repr(tuple((value.numerator, value.denominator) for value in rows.pool)).encode())
    for array in (rows.kinds, rows.term_row, rows.term_a, rows.term_b, rows.term_coeff):
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name, translation", sorted(GOLDEN))
def test_reduction_matches_its_frozen_digests(name, translation):
    benchmark = get_benchmark(name)
    options = benchmark.options(
        upsilon=1,
        translation=translation,
        strategy="gauss-newton",
        verify="exact",
        portfolio=("gauss-newton",),
    )
    task = build_task(benchmark.source, benchmark.precondition, benchmark.objective(), options)
    pairs, rows = GOLDEN[(name, translation)]
    assert pairs_digest(task.pairs) == pairs, "Step-2 pairs moved"
    assert rows_digest(task.system.rows) == rows, "Step-3 row arrays moved"
