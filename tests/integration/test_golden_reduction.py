"""Frozen digests of Steps 2 and 3.

Each case's Step-2 constraint pairs and Step-3 row arrays hash to a fixed
sha256, recorded when the reduction was known to be right.  A change to
either step that moves a coefficient, a name, a row or a term's place fails
here, without a hand-kept reference implementation to compare with.

* ``GOLDEN``: the pairs and rows of every quick program under Putinar at
  upsilon=1 with the options the benchmark's requests carry, and under
  Handelman on three of them (every quick program verified with these).
* ``UPSILON_2``: the rows of the same Putinar requests at upsilon=2, the
  served default.  Step 2 does not read upsilon, so the pairs are
  ``GOLDEN``'s.
* ``FARKAS``: Handelman with single factors and no witness, the linear
  baseline of ``farkas_translate``, over three programs' pairs.
* ``GRID`` and ``GRID_FARKAS``: every combination of the reduction options
  on two small programs (degree, conjuncts and upsilon in {1, 2}, both
  translations, entry assumptions, witness and SOS encoding on and off), and
  Handelman with single factors on their pairs; rows, and also the row
  origins and pair provenance.

Every digest outside ``GOLDEN`` was recorded only after a per-``Polynomial``
expansion of the translation, which built each multiplier, guard product
and Gram expansion as ``Polynomial`` values and equated coefficients, gave
the same constraints (kind, origin and polynomial), unknowns, provenance and
objective as the kernel did.

* Pairs: each pair's name, then each polynomial (assumptions, conclusion)
  as ``(monomial items, numerator, denominator)`` in term order.
* Rows: the ``rows_digest`` fixture of ``tests/conftest.py``: the name
  table, the pool as integer pairs, and the dtype and bytes of ``kinds``,
  ``term_row``, ``term_a``, ``term_b`` and ``term_coeff``.
* Labels: every row's origin label, then each pair's provenance ``repr``.

Digests do not depend on ``PYTHONHASHSEED``.  When a change is meant to
move them, say why in its description and record the new values.
"""

import hashlib

import pytest

from repro.invariants.handelman import handelman_translate
from repro.invariants.synthesis import SynthesisOptions, build_task
from repro.solvers.farkas import farkas_translate
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

#: program -> rows digest of the same Putinar request at upsilon=2 (the served default).
UPSILON_2 = {
    "sum": "877b56b73ea2c54a40c7a296e3b502586dbd9e1d25739990b4c4039738e9d264",
    "cohendiv": "5c7a139a3598702114a110eb08efa8f7cba26bcdd2a0fb3ff2001eede752c386",
    "divbin": "7da8ccfde0c6eed2037ab064fbeffd2ec11d58ddfffc394c82d7334f8b7fe55b",
    "hard": "51a79d9201523bdad3cfdaa57d40bcce7f190ad43dee582d724d2a89fe505a55",
    "mannadiv": "ace678e9c7ca57c74acd110acc5f57a88569fce5231211853f6f866e05d3a3f1",
    "wensley": "4cd3ed0c901ae314636eefbe58f82d6d897fc7df93ef0b5c4baf9b8387001f21",
    "sqrt": "4412a04a4b31293fc077334b8816e55886d5d507641982283941a93007aa10ac",
    "dijkstra": "6236bd5d72bd16c7b89a66cfcb9da8a747843322fb4cabeeec8c1a88e0ec0f78",
    "z3sqrt": "8b7fa66b27f83d9b09343e2ccce2db3e47c8054ee407f0329030da6494d83cb8",
    "freire1": "518b3c6a57f24f373ec492ae918eb6def1fa70749c63df440046dd92840def0f",
    "freire2": "bb382097eba520729d5da4dfb4cd1b5954b8ce58b79c6a908a17007552437dab",
    "euclidex2": "a8639d09d4b0e896e78bc4768cf5eedbcdf3c2164ab0d88989a0c9a98a161a91",
    "lcm1": "2519e94835fa141705fdd0016123a36e3f485ddca672e36d86402c53d6835cd9",
    "lcm2": "88400ff3f176cdd1e1918ac3064f0e530421ca8553359e8d572a95bc82ed3b52",
    "prodbin": "32e0babc0eb2a94fcb0b5153c1723d8f93ccb8f90810c2a8383956973ca20f02",
    "prod4br": "76928349c3da4c4e95cbddb255ed55359f29404f295e80d619d30088c584951e",
    "cohencu": "d355c37ce9c06d3142d0f4f940149eb39d1e14347628f360f08404fbbc884049",
    "petter": "d24026ef7f88430da2f16d7f9c5dfbcbf045fb905212aafc6e2bb77ebd234673",
    "inverted-pendulum": "bc89a3240201a76f4b25f18dc9947cddf2c95b402d21fd121123dc49d9cc7b18",
    "strict-inverted-pendulum": "51bcbc89f6919c10d7ea18fd4ca2989a443934efa089c244ada7d92199eb97d9",
    "oscillator": "fd87008f668e505a29b968bcb681bbc68c419282dc150cb320fde914c312fd17",
    "recursive-sum": "edd70b754b9217af6052a2c35f5850e8fe596c8609c374ce51bae6f30c0fd7e5",
    "recursive-square-sum": "fa04a0a429dc15ae3e77ea3b7ab2b030c0a96a5d0e60f450a6b45dd1123edd8f",
    "recursive-cube-sum": "5433ae410464ce9d8e7e39003b3061499933bd9cc4dad9a66dfb22920d9791e2",
    "pw2": "4162509aaf1d2b0cc6c4d8f5bdca2a26f7f060c6b0f526c8d91919f00ec6d89f",
    "merge-sort": "e77398e460c367b60048ca57915d5a86ad2395d7fe927f7a1472590f54eee6ba",
}

#: program -> rows digest of ``farkas_translate`` (Handelman, ``max_factors=1``, no
#: witness: the Farkas baseline) over the same request's pairs.
FARKAS = {
    "sum": "6546f6f5cf5f2afeb2e30b9b9fbeee2fcf290099da87e38bbe6f65568a68bcbe",
    "cohencu": "adf9ca3729fb42e9eb20e8ad7f5b002777ee13425a1c709bc5fa6a2cd5723dda",
    "merge-sort": "536849f4d43b86d90cdc6d6f317ae0a4dc5d0ab542dec619fcc00a8736fbd9fb",
}

#: (program, degree, conjuncts, upsilon, translation, add_entry_assumptions, with_witness,
#: encode_sos) -> (rows digest, labels digest) of ``build_task`` on the small programs below.
GRID = {
    ("branch", 1, 1, 1, "putinar", False, False, False): ("fc0053e6f697ec20a9e778263b62f8cf1beddf2e8f43df56b8a8149630dd509c", "8b312d41cfbf940ff3dbbd8d078cb85c462749737bca68651e6580ccb2d52c0b"),
    ("branch", 1, 1, 1, "putinar", False, False, True): ("6d19b9f97b7d75840a87944ac14753527eb5c2eec75f7a538358479170b6cc57", "ae26fbb07598a2455f102a887b32e2b5eb33d8455acb809f16558f14293ba98e"),
    ("branch", 1, 1, 1, "putinar", False, True, False): ("54fac6e5e75607046ce294fbadb697abf9903ed7325bbbf4d33f3d5cbea24460", "386a2d7baeb7977f81b3485938970b8ef35f9f512ac2be07fd87778473d22d87"),
    ("branch", 1, 1, 1, "putinar", False, True, True): ("3c9b24b1a0ba189138ffc453bea47dd0a168af907d084ee7fc0ba6d4554b8f71", "092c873f270a273298f5ebb606a2e2ab4d28ebad6dc16340609ea104d8150fe8"),
    ("branch", 1, 1, 1, "putinar", True, False, False): ("1903fb48ead616d8a1b7a7a7cf1fecef06e494fe22094cfa51dde26d89c3d948", "cc8c0667a771e824bfb3bcbfa61a586f37ddee7140cdd48691319610eb28e9f3"),
    ("branch", 1, 1, 1, "putinar", True, False, True): ("28f42c254699facf794029320cc776ffe6143b9ed25f73089b1c2c3fcf7a886f", "20ff031bd727cdbd5c73cdb64ae79a965bae991fd0c66473ff4bbe616f60e357"),
    ("branch", 1, 1, 1, "putinar", True, True, False): ("0b9a934e8aba76071fcaf1d260339c1ca042bcf3e23480992b9bf3dac9a38521", "b2a1b1514bd93b8517f3b5c7a60a3b000325bb10a1caae4d680d2394715c1ad2"),
    ("branch", 1, 1, 1, "putinar", True, True, True): ("1e67bbeb80e97404389253b6e67d8c7dc1aaa3f20963e1116e405fdbfddef71f", "55ad987767f8853c047fc83a3094da3bdcf90f19b312dfc87130276a211f3ff5"),
    ("branch", 1, 1, 1, "handelman", False, False, False): ("8f60d12f3c006dd14f2202bdcab977334e4c1eb93533a4bb3358dd7b3fedb2ad", "702a87d6d7ab12b47d6122a90e4c0f6c2c375616dd3b6f4992ed713d1ee65edd"),
    ("branch", 1, 1, 1, "handelman", False, False, True): ("8f60d12f3c006dd14f2202bdcab977334e4c1eb93533a4bb3358dd7b3fedb2ad", "702a87d6d7ab12b47d6122a90e4c0f6c2c375616dd3b6f4992ed713d1ee65edd"),
    ("branch", 1, 1, 1, "handelman", False, True, False): ("8b9558689e903ca3418c66c9b9171ad82f10ba7b65916b616fa9cb2a680dbe37", "582fb9fcfe160c4c90b303fd98fc1da03d666e7b28b2f7820a134dd83872925f"),
    ("branch", 1, 1, 1, "handelman", False, True, True): ("8b9558689e903ca3418c66c9b9171ad82f10ba7b65916b616fa9cb2a680dbe37", "582fb9fcfe160c4c90b303fd98fc1da03d666e7b28b2f7820a134dd83872925f"),
    ("branch", 1, 1, 1, "handelman", True, False, False): ("0e71168608430ffb1836df7bc01bbaa9f4a7a648914a46511ecd1bd7fd00f069", "1a9384b6feed9901f63b0f74e6dc6b006c8664b01c37db7513334da1d1396494"),
    ("branch", 1, 1, 1, "handelman", True, False, True): ("0e71168608430ffb1836df7bc01bbaa9f4a7a648914a46511ecd1bd7fd00f069", "1a9384b6feed9901f63b0f74e6dc6b006c8664b01c37db7513334da1d1396494"),
    ("branch", 1, 1, 1, "handelman", True, True, False): ("c103d485f18898ac307f76e78a0b4f46cd17ade5f517266ee94b0e3bb36b1b4c", "9aefd491abb082baac641fd2c729ce700cc30550e56596a312b616693d5437c3"),
    ("branch", 1, 1, 1, "handelman", True, True, True): ("c103d485f18898ac307f76e78a0b4f46cd17ade5f517266ee94b0e3bb36b1b4c", "9aefd491abb082baac641fd2c729ce700cc30550e56596a312b616693d5437c3"),
    ("branch", 1, 1, 2, "putinar", False, False, False): ("dd4e8904c954c839407184062e7a1383d3dc41f213efdfd3bbb4bd7ba504e97f", "ce7c069eba0cefe56b284a578e787fe2b4ec46bcb1c7d8b36de08c78c89bf1bc"),
    ("branch", 1, 1, 2, "putinar", False, False, True): ("f11cf6b5fc702a25309130d84baedf2f40b88fe4b4108fc222000398ff3513a2", "ab10275697b726c2f43611f174a5761dc4e54e82038549c3a8a45491bfc6969e"),
    ("branch", 1, 1, 2, "putinar", False, True, False): ("f75ac6fbb09ef5d13ed7ce54a0ac9ec032c9d072ee314cf374c6403ca45305f2", "a02919927cd2f6828a8a2c2962829a175ae2f39a8282c94d467ee72f3b33a57e"),
    ("branch", 1, 1, 2, "putinar", False, True, True): ("0df79622b4cd58c93b80ce9f41887deead3255799f14f05a069474666a86ff61", "3b74ba6cd10b14d07a9719e00a1468fb458e57aee0ba61fd4b222d3af5530194"),
    ("branch", 1, 1, 2, "putinar", True, False, False): ("323d5475b475fd97055c2751d27423bb447b9d4955d29766238cf286125f0529", "729e835c507efb75fa921ddece3c775448e02f72df7ced61c3a4605a692af497"),
    ("branch", 1, 1, 2, "putinar", True, False, True): ("23341cf8985128fc3b220bbc47250e3f6e8dffab40049c06903cda7cbab3b687", "4f8534513488bea29da25c868d274bbdbfeb1ce80816d6ad381ea0c827b2011a"),
    ("branch", 1, 1, 2, "putinar", True, True, False): ("006257c3d80f735b9bcc2c34d0a5d419993185d00fac0ec22e9f9369c76fcec5", "e0d991a3b10ad6ee78cfc250db34b077f0f1f386aba83b74c7a37bd0a33fb839"),
    ("branch", 1, 1, 2, "putinar", True, True, True): ("b75b1843d2feb066d5a9197538693d5356b4691cc063932a65cfb918ec4ca2c1", "99d7b8525b94f67ce191cac7e2cabc4c7b87a8db9fe0ed9352eff81147cf63ee"),
    ("branch", 1, 1, 2, "handelman", False, False, False): ("8f60d12f3c006dd14f2202bdcab977334e4c1eb93533a4bb3358dd7b3fedb2ad", "702a87d6d7ab12b47d6122a90e4c0f6c2c375616dd3b6f4992ed713d1ee65edd"),
    ("branch", 1, 1, 2, "handelman", False, False, True): ("8f60d12f3c006dd14f2202bdcab977334e4c1eb93533a4bb3358dd7b3fedb2ad", "702a87d6d7ab12b47d6122a90e4c0f6c2c375616dd3b6f4992ed713d1ee65edd"),
    ("branch", 1, 1, 2, "handelman", False, True, False): ("8b9558689e903ca3418c66c9b9171ad82f10ba7b65916b616fa9cb2a680dbe37", "582fb9fcfe160c4c90b303fd98fc1da03d666e7b28b2f7820a134dd83872925f"),
    ("branch", 1, 1, 2, "handelman", False, True, True): ("8b9558689e903ca3418c66c9b9171ad82f10ba7b65916b616fa9cb2a680dbe37", "582fb9fcfe160c4c90b303fd98fc1da03d666e7b28b2f7820a134dd83872925f"),
    ("branch", 1, 1, 2, "handelman", True, False, False): ("0e71168608430ffb1836df7bc01bbaa9f4a7a648914a46511ecd1bd7fd00f069", "1a9384b6feed9901f63b0f74e6dc6b006c8664b01c37db7513334da1d1396494"),
    ("branch", 1, 1, 2, "handelman", True, False, True): ("0e71168608430ffb1836df7bc01bbaa9f4a7a648914a46511ecd1bd7fd00f069", "1a9384b6feed9901f63b0f74e6dc6b006c8664b01c37db7513334da1d1396494"),
    ("branch", 1, 1, 2, "handelman", True, True, False): ("c103d485f18898ac307f76e78a0b4f46cd17ade5f517266ee94b0e3bb36b1b4c", "9aefd491abb082baac641fd2c729ce700cc30550e56596a312b616693d5437c3"),
    ("branch", 1, 1, 2, "handelman", True, True, True): ("c103d485f18898ac307f76e78a0b4f46cd17ade5f517266ee94b0e3bb36b1b4c", "9aefd491abb082baac641fd2c729ce700cc30550e56596a312b616693d5437c3"),
    ("branch", 1, 2, 1, "putinar", False, False, False): ("14f7d104708a0b910a6a258f46c3cd4ebe7db4c2d1bcfb01c513704efa8f5e43", "a0061802cd57ed378d83c94830fe4d88d17474e2b903cfd686a91c157dab4a80"),
    ("branch", 1, 2, 1, "putinar", False, False, True): ("bb4075ee8cbbe1eb468e7178290f1614adbe133b907f128aace992e6a1384b51", "d63516fcf81f879aec9ec062d9f7f92f11e5d021cf4f414d66a8439c9749db32"),
    ("branch", 1, 2, 1, "putinar", False, True, False): ("6d8a17658cd04917a0aa392b66585ffa279e3f4767e6ac51a5788f95aca62981", "f45d47614ffaf87807cd1a693ee71881c6202e6fc20375f128cdeb862b4036fb"),
    ("branch", 1, 2, 1, "putinar", False, True, True): ("0bdf24bdc2c868e66ba367dbe3b1b57492e78b8d53b9d124e2d3d47cb7a1fc2b", "57fbdc37363210c9bf31b6d69df29fd77b4b26202e370db272bc5a5519a55ef2"),
    ("branch", 1, 2, 1, "putinar", True, False, False): ("44711c0ab5be2dbaa0202c71f6852ad85fc45f295d2132edae4f94ca348d11f6", "a34dd001e355e39e81261a6286d08d555e3e4875970810694442bf06b747a93b"),
    ("branch", 1, 2, 1, "putinar", True, False, True): ("f42dcc6ba1f59a8c1016c46ddaf091f0fc8c9d5f8560dbc8b7477f7845b5854f", "911a8cafbd992adcc9f3035023345e11466f8237b41ff1569b482583ab9c3764"),
    ("branch", 1, 2, 1, "putinar", True, True, False): ("243486425b5ec8266d2e8e33fb989cb3f8a8d2d86bcf8f0514d3a73d01825287", "f250a3bb0d0bb988fba3676c83e36f927246b9b626b5b2dee913bd8df9430f36"),
    ("branch", 1, 2, 1, "putinar", True, True, True): ("b176aefa0cbfb47bc165d3100f41ff22c7ba473739063bc6caa551b44acb217d", "824b7a30ac792e8b998ae3603a1c729213285f8623818e6db93e73d2fc7a19d9"),
    ("branch", 1, 2, 1, "handelman", False, False, False): ("973bf3f1f3cc5bc0cd735a2fe30cb55a635e6845da80ae1f2af03bd5e872893a", "bc3f7eb743c7fa10137869e7a39ccd1011741277222707a41bd6646c85b0b29a"),
    ("branch", 1, 2, 1, "handelman", False, False, True): ("973bf3f1f3cc5bc0cd735a2fe30cb55a635e6845da80ae1f2af03bd5e872893a", "bc3f7eb743c7fa10137869e7a39ccd1011741277222707a41bd6646c85b0b29a"),
    ("branch", 1, 2, 1, "handelman", False, True, False): ("45426da6cd6421ef92553eae528010e43e4cedfd81998b64d50ecdff389c9a2c", "7d6ee2e860b0538e1fb29b660f7cf15fa2436ec3b4b46daca54ab15e5ff1ed22"),
    ("branch", 1, 2, 1, "handelman", False, True, True): ("45426da6cd6421ef92553eae528010e43e4cedfd81998b64d50ecdff389c9a2c", "7d6ee2e860b0538e1fb29b660f7cf15fa2436ec3b4b46daca54ab15e5ff1ed22"),
    ("branch", 1, 2, 1, "handelman", True, False, False): ("56e2bebb3e2fd2a275907e0269b48147ad77854c7355fc81ecc9b92a5134898e", "1c3b99ba57a378e9e59404979033a262e2d7eefad6139710ea62f3a862995b28"),
    ("branch", 1, 2, 1, "handelman", True, False, True): ("56e2bebb3e2fd2a275907e0269b48147ad77854c7355fc81ecc9b92a5134898e", "1c3b99ba57a378e9e59404979033a262e2d7eefad6139710ea62f3a862995b28"),
    ("branch", 1, 2, 1, "handelman", True, True, False): ("5e1fffcf40b6b3901723218704d36352cf4130d2daec8413ef4d9bd510abdf51", "96bf8ed20a6cd85181d869ea9ecb5e0b4531c554ae1959067c335801348ed6d6"),
    ("branch", 1, 2, 1, "handelman", True, True, True): ("5e1fffcf40b6b3901723218704d36352cf4130d2daec8413ef4d9bd510abdf51", "96bf8ed20a6cd85181d869ea9ecb5e0b4531c554ae1959067c335801348ed6d6"),
    ("branch", 1, 2, 2, "putinar", False, False, False): ("22490c727c41a001db0f3759c918a8ed3c650446ec91dbff46ae5dc38f0d54a8", "91a8238b1b4cac1f71b879c8d13af7db06ea4d692ad18cee9f9ebe8726dc65e6"),
    ("branch", 1, 2, 2, "putinar", False, False, True): ("b029b5cc8320d727f760d003ef779bc7462557108cf68e7ab7f84bcbc4f30dce", "69857b0ae8f5922ae674f94980ae4bfa12686d2e108fe40142c1b703b3e63759"),
    ("branch", 1, 2, 2, "putinar", False, True, False): ("0e593227103f0b7da230dd5c1ae3bcdcd337e1469a19a9d44ccf88ce4f3d0011", "46c217aca76199968eaf1779b954addd516a4dc72a890f946bfdfb55b712465d"),
    ("branch", 1, 2, 2, "putinar", False, True, True): ("7beb9489d5b2a67e8f74c438dd9edb84a0d3e7e18e95ed82a9920cb17deacfae", "afb1f5708fbdcbb1247faf1ff9bc2f99dde8a7b3047aba2d36c1a61590147650"),
    ("branch", 1, 2, 2, "putinar", True, False, False): ("873bd1fdbd4777020b4cd13cd53ad87c507f3befea45dd28ab5d07274ade89db", "a94e208628d75a7a620c9ade4d59673c3956f61625878f4d6a1451967a0a762f"),
    ("branch", 1, 2, 2, "putinar", True, False, True): ("edfc8e71b4d3f10bd9526d410c05c0a1844d44113ab1417eb8670f6b7c0ae725", "a43776f65e4523072c249b14b9082c2e26725de868836f9d7327a83fc762b254"),
    ("branch", 1, 2, 2, "putinar", True, True, False): ("1cb19a207b727619884d5ba30b4ceeeab9d3f07124b8f88353e234a33b75c67b", "c65096ce1fb53446002d7c543ec49003d396d748db150fec34c5c12fefdde673"),
    ("branch", 1, 2, 2, "putinar", True, True, True): ("33c4898b89442b3a7cefb9e98500a6a06be256ce7209b235f5c7c131214bea96", "4a5a46a2b9d8090376a9edc5c2e57b160c5f40e450cb415bfb51b0cc00657e39"),
    ("branch", 1, 2, 2, "handelman", False, False, False): ("973bf3f1f3cc5bc0cd735a2fe30cb55a635e6845da80ae1f2af03bd5e872893a", "bc3f7eb743c7fa10137869e7a39ccd1011741277222707a41bd6646c85b0b29a"),
    ("branch", 1, 2, 2, "handelman", False, False, True): ("973bf3f1f3cc5bc0cd735a2fe30cb55a635e6845da80ae1f2af03bd5e872893a", "bc3f7eb743c7fa10137869e7a39ccd1011741277222707a41bd6646c85b0b29a"),
    ("branch", 1, 2, 2, "handelman", False, True, False): ("45426da6cd6421ef92553eae528010e43e4cedfd81998b64d50ecdff389c9a2c", "7d6ee2e860b0538e1fb29b660f7cf15fa2436ec3b4b46daca54ab15e5ff1ed22"),
    ("branch", 1, 2, 2, "handelman", False, True, True): ("45426da6cd6421ef92553eae528010e43e4cedfd81998b64d50ecdff389c9a2c", "7d6ee2e860b0538e1fb29b660f7cf15fa2436ec3b4b46daca54ab15e5ff1ed22"),
    ("branch", 1, 2, 2, "handelman", True, False, False): ("56e2bebb3e2fd2a275907e0269b48147ad77854c7355fc81ecc9b92a5134898e", "1c3b99ba57a378e9e59404979033a262e2d7eefad6139710ea62f3a862995b28"),
    ("branch", 1, 2, 2, "handelman", True, False, True): ("56e2bebb3e2fd2a275907e0269b48147ad77854c7355fc81ecc9b92a5134898e", "1c3b99ba57a378e9e59404979033a262e2d7eefad6139710ea62f3a862995b28"),
    ("branch", 1, 2, 2, "handelman", True, True, False): ("5e1fffcf40b6b3901723218704d36352cf4130d2daec8413ef4d9bd510abdf51", "96bf8ed20a6cd85181d869ea9ecb5e0b4531c554ae1959067c335801348ed6d6"),
    ("branch", 1, 2, 2, "handelman", True, True, True): ("5e1fffcf40b6b3901723218704d36352cf4130d2daec8413ef4d9bd510abdf51", "96bf8ed20a6cd85181d869ea9ecb5e0b4531c554ae1959067c335801348ed6d6"),
    ("branch", 2, 1, 1, "putinar", False, False, False): ("48915ab7280b39f2c6d368df479812a2ccac9fba83b1f071914a541acd697799", "2ef5636ab77846d861a202bfe701540d92ba6adac60ba7b84c26e1f60562d8b3"),
    ("branch", 2, 1, 1, "putinar", False, False, True): ("09202e01751dce88c7e84fe6aa61e1ce8ae2cc91cbdd5523053fb5f429ab7e68", "de82c795d32e8e9d270bab3da77e2ab0e29829dd97f0b2e8e829c5ab4cce1720"),
    ("branch", 2, 1, 1, "putinar", False, True, False): ("40c87c96cf3a6d77c46f157d3f6a995bcac8a13dbe314841cd854dcba98fe45e", "956c82cbd624f40846d18ca24d5e6c0ba81e5b8884eb0938547921af3fbaca76"),
    ("branch", 2, 1, 1, "putinar", False, True, True): ("db9391992d361646a4f6bf7dd25548be046b9e3ef80c41a5ffed89c178c9c88b", "b6633857cb7423effdb9b97d2fe860eb66a270880cc5a718e1d831d3e917e258"),
    ("branch", 2, 1, 1, "putinar", True, False, False): ("b8209ea546a96ff6e37724c0e19bfb6387d28e91c76ea26e6bcbb0aba85548ea", "26a7a6b5dff668d3029deac58b25c728cdc40cfb12e69e0455ff9b227b093b3f"),
    ("branch", 2, 1, 1, "putinar", True, False, True): ("318c429b32fcac7232e6b52911a256c665b14e2e08c98b8d2b10032c11bd6089", "8ed876e43991d5b1f98ad597610900ee360eea184cec7d2d1b2445eb55cb868b"),
    ("branch", 2, 1, 1, "putinar", True, True, False): ("8b89508fb2c694753473ee0e9d91f067ffde2c505d5ff196542d9b833b071e7d", "ada7b95e8312d4a17dcdc3f9f2e819d389afded0c1ea2eda69121f16824b3a42"),
    ("branch", 2, 1, 1, "putinar", True, True, True): ("b6b6ca803830cf0542347e330c54d9a0f400168f10915acb50d714b07a75e7fe", "e2d4a271083d67726c5a6f8b1073dfb28ba5f7444a8763a630730e5a368c0a1c"),
    ("branch", 2, 1, 1, "handelman", False, False, False): ("5fe810819941c58ca32cdaef8c6b703a5de3ce423bd663dbc2f2c1771fbfd6ce", "68c70090ff9b9ba117151ad51b9c4f0c07529912a8cd079c4738c8d6f176c096"),
    ("branch", 2, 1, 1, "handelman", False, False, True): ("5fe810819941c58ca32cdaef8c6b703a5de3ce423bd663dbc2f2c1771fbfd6ce", "68c70090ff9b9ba117151ad51b9c4f0c07529912a8cd079c4738c8d6f176c096"),
    ("branch", 2, 1, 1, "handelman", False, True, False): ("bdf239f9282519c2a64d14be8fa26614810849154c08f927226467328e5f7bb8", "472b60ce491d5fa03aa7f1ed984d3cf06d6e287e311dae7073a33ce5542c6260"),
    ("branch", 2, 1, 1, "handelman", False, True, True): ("bdf239f9282519c2a64d14be8fa26614810849154c08f927226467328e5f7bb8", "472b60ce491d5fa03aa7f1ed984d3cf06d6e287e311dae7073a33ce5542c6260"),
    ("branch", 2, 1, 1, "handelman", True, False, False): ("9ca3fc745623f67989a6d1eeece6f264b66e2ac2b0e2302b4704f2e71a62d390", "37a628e77eccdef4904b8435868914b37ea203ad2ec0276a9e6ae45ff07e4bb1"),
    ("branch", 2, 1, 1, "handelman", True, False, True): ("9ca3fc745623f67989a6d1eeece6f264b66e2ac2b0e2302b4704f2e71a62d390", "37a628e77eccdef4904b8435868914b37ea203ad2ec0276a9e6ae45ff07e4bb1"),
    ("branch", 2, 1, 1, "handelman", True, True, False): ("347ad268744dd3dbd7c6cac2e6f06ecf7d573de89e1d4449b512718989022643", "a43c38c432c255c4a15a9b5c4fad6aeab010ee217dc16c7029154cccaaebe9cc"),
    ("branch", 2, 1, 1, "handelman", True, True, True): ("347ad268744dd3dbd7c6cac2e6f06ecf7d573de89e1d4449b512718989022643", "a43c38c432c255c4a15a9b5c4fad6aeab010ee217dc16c7029154cccaaebe9cc"),
    ("branch", 2, 1, 2, "putinar", False, False, False): ("8435e971d26d510cf633522e9ac264af72e505849fe5855c6d46653bef3b52b6", "40aef495620bb62b066532f34a1edcae762cf240d1e0093d0605957d974da656"),
    ("branch", 2, 1, 2, "putinar", False, False, True): ("0f4309a7a0d34dd4d82f5322a55d2eace80dc191f48da9bf6da2581f4c75a37d", "6fe5ff190a60babb4e3e3c4d00aef8149fdd9e4ecdd834cb1f92af7af0dd3917"),
    ("branch", 2, 1, 2, "putinar", False, True, False): ("0f3da7f85ff2ba79a8b14a65aaa0fbb9c0990545069b4067965b7fb9dc2c2000", "1f8b23b4654addafb7eea95c849b5f1289a6d57356a6c81863dea9ee5046d93b"),
    ("branch", 2, 1, 2, "putinar", False, True, True): ("3b8093172f5622a3c1d1b649691adfaf9e5632f2f692e293741da28a76ea2223", "727e14b96de282d9965653a92d523fae4e8b661ae13691bc04f795d9d5747e1c"),
    ("branch", 2, 1, 2, "putinar", True, False, False): ("2c8bd1b06c996917dda2af4397da482e19206cebb4754e43bfd552073510976c", "8fde4ca9d031790b5947a4f64c73100eb1ad237289e802f6ee0fef446401069b"),
    ("branch", 2, 1, 2, "putinar", True, False, True): ("e7b32af140669f9651510c0cf37f12878fe2612b6c2560cea3fc311af857bf9a", "6cc7dda8da4a04e11c8b05924301d139c3d871c1c8e7c8232196ce3fd3be1bc6"),
    ("branch", 2, 1, 2, "putinar", True, True, False): ("e7d6908758ec3f8b1bac693467139763a18fc00d8ee1ee74b2d58eb3ad1a41e1", "db97ffa58da3420cd917e0e63d0dadc79390ae818e4d381e0d1570a1f1dbd5cb"),
    ("branch", 2, 1, 2, "putinar", True, True, True): ("7e0fee057d713125e8f9563eca0b2a4bc8b0ff8ded14308c33c1d640ada6afed", "e97366dc2fd46bf681c754ff3df7a62374d13bd0b079a77915e6949d3609b2d1"),
    ("branch", 2, 1, 2, "handelman", False, False, False): ("5fe810819941c58ca32cdaef8c6b703a5de3ce423bd663dbc2f2c1771fbfd6ce", "68c70090ff9b9ba117151ad51b9c4f0c07529912a8cd079c4738c8d6f176c096"),
    ("branch", 2, 1, 2, "handelman", False, False, True): ("5fe810819941c58ca32cdaef8c6b703a5de3ce423bd663dbc2f2c1771fbfd6ce", "68c70090ff9b9ba117151ad51b9c4f0c07529912a8cd079c4738c8d6f176c096"),
    ("branch", 2, 1, 2, "handelman", False, True, False): ("bdf239f9282519c2a64d14be8fa26614810849154c08f927226467328e5f7bb8", "472b60ce491d5fa03aa7f1ed984d3cf06d6e287e311dae7073a33ce5542c6260"),
    ("branch", 2, 1, 2, "handelman", False, True, True): ("bdf239f9282519c2a64d14be8fa26614810849154c08f927226467328e5f7bb8", "472b60ce491d5fa03aa7f1ed984d3cf06d6e287e311dae7073a33ce5542c6260"),
    ("branch", 2, 1, 2, "handelman", True, False, False): ("9ca3fc745623f67989a6d1eeece6f264b66e2ac2b0e2302b4704f2e71a62d390", "37a628e77eccdef4904b8435868914b37ea203ad2ec0276a9e6ae45ff07e4bb1"),
    ("branch", 2, 1, 2, "handelman", True, False, True): ("9ca3fc745623f67989a6d1eeece6f264b66e2ac2b0e2302b4704f2e71a62d390", "37a628e77eccdef4904b8435868914b37ea203ad2ec0276a9e6ae45ff07e4bb1"),
    ("branch", 2, 1, 2, "handelman", True, True, False): ("347ad268744dd3dbd7c6cac2e6f06ecf7d573de89e1d4449b512718989022643", "a43c38c432c255c4a15a9b5c4fad6aeab010ee217dc16c7029154cccaaebe9cc"),
    ("branch", 2, 1, 2, "handelman", True, True, True): ("347ad268744dd3dbd7c6cac2e6f06ecf7d573de89e1d4449b512718989022643", "a43c38c432c255c4a15a9b5c4fad6aeab010ee217dc16c7029154cccaaebe9cc"),
    ("branch", 2, 2, 1, "putinar", False, False, False): ("be4e709fd08d316ba57d7d0749521f4b796c2672ebfa1aa0849337918cd4bb23", "ff20c4aea6a69a826e78fc20643a8e9cedde11f20b67fb834dbc2710ef887d3c"),
    ("branch", 2, 2, 1, "putinar", False, False, True): ("f4617304195d3b578f1270c637ab0382c4a76eb2cc5a5cd87ab8e8f699a62394", "7256908bc12b144178256a338a8ab1680de6a1acad163bfeb55a2122d03da327"),
    ("branch", 2, 2, 1, "putinar", False, True, False): ("2d1b239bb46853b853dcfefe0d53ce4a024c7f56edc948daed4bc9fa0351829d", "98f703980528cb80cce708953111356aaefb979d2fc75d6f9c960e2a7ddff396"),
    ("branch", 2, 2, 1, "putinar", False, True, True): ("9f6beeb77c33093f0ee38ea57583f94348580fa2693f6e7454378edb873e62cd", "a4ff82f9e9d5d3e347acb4b996f48036ead6a2e1ca0c31ba3b5ae0539cf32bf0"),
    ("branch", 2, 2, 1, "putinar", True, False, False): ("bb46457049783eec748fde4ab9060c0c3f4f16c029b4cab62430584b8e3d3dd0", "d114798c8a1d4fa55e69b9dbeb36e2fc03cc3ec1843df4268d48b92ed5bd41a6"),
    ("branch", 2, 2, 1, "putinar", True, False, True): ("baf223bf138813822a0d724309c81f249e8eeb13edfeee35d32adfcd70505529", "ccbb9bf79e8d10f6c425c10a8cc66327ff348c69be97ba09ee1f1c98b0773c2b"),
    ("branch", 2, 2, 1, "putinar", True, True, False): ("66935b0c949404419f56f3c0fd98babe4c15d59bbf109ddc76691668c7b5e9da", "a1c37d88f9034dffb40d87a2b9e84408e5953f140dd946a8ea9f4c11c75dac50"),
    ("branch", 2, 2, 1, "putinar", True, True, True): ("f319a3b0e563d2a18be729c61a232153ea8a1f81c46af438b2389b21942607c7", "2d1ec361dab9b22b05ffc314f50631f24e0aad8b32fcf39afc23b9a453803834"),
    ("branch", 2, 2, 1, "handelman", False, False, False): ("d19d5b01b33b84a987bad630fd8751e20b2ed081e8d05836979a9100e8bcb025", "7fd6c7f22d6d022f0646e40e625fa35e09c30f35289a4ceecde0eadebcae46bf"),
    ("branch", 2, 2, 1, "handelman", False, False, True): ("d19d5b01b33b84a987bad630fd8751e20b2ed081e8d05836979a9100e8bcb025", "7fd6c7f22d6d022f0646e40e625fa35e09c30f35289a4ceecde0eadebcae46bf"),
    ("branch", 2, 2, 1, "handelman", False, True, False): ("819763ba9c0a8f8dac5804452dde9939794c9e9b911c462288f664f80953c9db", "f66bfc0098622a741796d381680707e6e0e7bcfa24a194dfdbe8814208e8ae61"),
    ("branch", 2, 2, 1, "handelman", False, True, True): ("819763ba9c0a8f8dac5804452dde9939794c9e9b911c462288f664f80953c9db", "f66bfc0098622a741796d381680707e6e0e7bcfa24a194dfdbe8814208e8ae61"),
    ("branch", 2, 2, 1, "handelman", True, False, False): ("b6eeb14e26332382656f70d8c9b39d6008925e18b5382fed1a69f911e1f5f2d8", "6c6c8a0a035ae98548b4a214b2acfa0da301edaf1b262e41258db0f8c00eb5cd"),
    ("branch", 2, 2, 1, "handelman", True, False, True): ("b6eeb14e26332382656f70d8c9b39d6008925e18b5382fed1a69f911e1f5f2d8", "6c6c8a0a035ae98548b4a214b2acfa0da301edaf1b262e41258db0f8c00eb5cd"),
    ("branch", 2, 2, 1, "handelman", True, True, False): ("2f39b598ecd9eafceb4849bb78e39d09c5f0f4c661a7a011587ba187fdd1a0c4", "47c731442f7be15435d46159dae3068a2f6ee7924562ba9d64945030dab463d8"),
    ("branch", 2, 2, 1, "handelman", True, True, True): ("2f39b598ecd9eafceb4849bb78e39d09c5f0f4c661a7a011587ba187fdd1a0c4", "47c731442f7be15435d46159dae3068a2f6ee7924562ba9d64945030dab463d8"),
    ("branch", 2, 2, 2, "putinar", False, False, False): ("0918505747bb7f342ba335dc459ac1cd3ab8361cac33d0309012a68b54716931", "7b45e3239645583c1dbcfbeb40369ab424726f194914050de9a3f404287673be"),
    ("branch", 2, 2, 2, "putinar", False, False, True): ("467b4d36c9e13e8e95845713c95770afbd1ce9be8c1b8df5dabddc37bd37c38b", "3f532a52719283dfed973d24e2495c775440b69dfa62fd514d8af8e049abdfc0"),
    ("branch", 2, 2, 2, "putinar", False, True, False): ("51eb1ac1b5a2b3e2810e1f6cd06c1819e40ab37d1557997e78cd77ed6857cf0e", "f0a2f410b8b909ebbab692d5c9f53d64fce4aa0a4aaa1297f5f160d26c2338c8"),
    ("branch", 2, 2, 2, "putinar", False, True, True): ("9ec72397df1173d5249eb1866acdc0ad3fa9f1a51c13d1ff0acd40f7e0e667f7", "3d3746a35f84211282082cdeebbb878ab1505b6033e2ba3cd592f99f0ee16a01"),
    ("branch", 2, 2, 2, "putinar", True, False, False): ("8c035195172a60e3b760468117d407fdd9d4d51ad06398213bc80f23f45e32c7", "4ffd26e3bdabface8b87a8cc96cd89388a2b466a40b55185062f2ce8507a6278"),
    ("branch", 2, 2, 2, "putinar", True, False, True): ("c92489ab111a2b307a45faad85f07835ce740efac845b543c6800237510a79b1", "21cc5458dd4c2c15c41b9d6e26ef7fbaaf88ba983ec02c068ad537eaf5c9b8fe"),
    ("branch", 2, 2, 2, "putinar", True, True, False): ("f4eb43e043422bc9d770e98e68f066df48bb3f8b312e7b969f9e13f46a48c063", "0ce68c317581bdf3172ab77d4e4df34af864d47428f327adf4f2b3d6726b4aaf"),
    ("branch", 2, 2, 2, "putinar", True, True, True): ("a7fcd0ff0f7ec2a82a120c0fd4876fb69154fdc92bde947a57a4ed6fb8ff6bc0", "db6b38b60978fac14c6169ef75f9b055a42b3585ab895c3448f68843e7678363"),
    ("branch", 2, 2, 2, "handelman", False, False, False): ("d19d5b01b33b84a987bad630fd8751e20b2ed081e8d05836979a9100e8bcb025", "7fd6c7f22d6d022f0646e40e625fa35e09c30f35289a4ceecde0eadebcae46bf"),
    ("branch", 2, 2, 2, "handelman", False, False, True): ("d19d5b01b33b84a987bad630fd8751e20b2ed081e8d05836979a9100e8bcb025", "7fd6c7f22d6d022f0646e40e625fa35e09c30f35289a4ceecde0eadebcae46bf"),
    ("branch", 2, 2, 2, "handelman", False, True, False): ("819763ba9c0a8f8dac5804452dde9939794c9e9b911c462288f664f80953c9db", "f66bfc0098622a741796d381680707e6e0e7bcfa24a194dfdbe8814208e8ae61"),
    ("branch", 2, 2, 2, "handelman", False, True, True): ("819763ba9c0a8f8dac5804452dde9939794c9e9b911c462288f664f80953c9db", "f66bfc0098622a741796d381680707e6e0e7bcfa24a194dfdbe8814208e8ae61"),
    ("branch", 2, 2, 2, "handelman", True, False, False): ("b6eeb14e26332382656f70d8c9b39d6008925e18b5382fed1a69f911e1f5f2d8", "6c6c8a0a035ae98548b4a214b2acfa0da301edaf1b262e41258db0f8c00eb5cd"),
    ("branch", 2, 2, 2, "handelman", True, False, True): ("b6eeb14e26332382656f70d8c9b39d6008925e18b5382fed1a69f911e1f5f2d8", "6c6c8a0a035ae98548b4a214b2acfa0da301edaf1b262e41258db0f8c00eb5cd"),
    ("branch", 2, 2, 2, "handelman", True, True, False): ("2f39b598ecd9eafceb4849bb78e39d09c5f0f4c661a7a011587ba187fdd1a0c4", "47c731442f7be15435d46159dae3068a2f6ee7924562ba9d64945030dab463d8"),
    ("branch", 2, 2, 2, "handelman", True, True, True): ("2f39b598ecd9eafceb4849bb78e39d09c5f0f4c661a7a011587ba187fdd1a0c4", "47c731442f7be15435d46159dae3068a2f6ee7924562ba9d64945030dab463d8"),
    ("loop", 1, 1, 1, "putinar", False, False, False): ("7167407cd03187299637a3ca23444927e2d1cc9edc8ffbd238bef62303876000", "d4f92b283a14d059f65d47e1de2cdf3c255196d126051832de9e6ff954017d93"),
    ("loop", 1, 1, 1, "putinar", False, False, True): ("0ecccd1282b174e20dc0763e270e0b0676b96b2a1bd56f02dce90279353bde88", "6593d84c4202ca5f61b8f9ef4fe9ccb8f6837d5aad3b7f871580eb2d3e5283f6"),
    ("loop", 1, 1, 1, "putinar", False, True, False): ("8cf40f2319fd4b68707bf7025ef3c2801e7ea00df9506ce399e399e7a685ea54", "3ab2898be462652e5dc9eb62ae1d2c0142037fd98daca84bba05b85343b08be1"),
    ("loop", 1, 1, 1, "putinar", False, True, True): ("a46977833029bb615354b866d219be9804ab0a65eee92034872d943603ef4dfd", "7926b03a6d9533595ea8cffbbf6f51c68641db09b51a7d7baebda80ce167d040"),
    ("loop", 1, 1, 1, "putinar", True, False, False): ("15e238ce8ef816a783aa868d3d0ceca0396935fb4d945915ddee00604963e231", "ebb1b7ac05a1c23726931c89256db245f85779f247671d6eba71f7a3da991274"),
    ("loop", 1, 1, 1, "putinar", True, False, True): ("a9a6cf8152e304d6e48b23fc9effd9c801f8cb35fa80d8b34332a18613c77ca1", "9cff50f2d03530e78bfff12fb71664dac8499a372a1e9c30517e43624c69102a"),
    ("loop", 1, 1, 1, "putinar", True, True, False): ("bf7b79e70ab4cff3046bbd96daae7915ecbbf4d7207c9025b6d23624235834e2", "fcf1b69dcf5f523be26aa33253e6904ad9aa22fde8328475e260722abad0c645"),
    ("loop", 1, 1, 1, "putinar", True, True, True): ("2092b6f6547983aca5c8187cd98609aeb7daf341d345d268b297aa40954ab896", "e6c18cd99d3dacda84dbe573b16a6b8e6a61c1aca5b0c03f242dad01f604ffe5"),
    ("loop", 1, 1, 1, "handelman", False, False, False): ("e039ea9e7d59a4b2947ea101f513d7cc849010b2cd57821d9a90f3ffa42be606", "bb5a17019efd1cf674a7b16d779073883fb091a96cce9784864a7d7b74b64609"),
    ("loop", 1, 1, 1, "handelman", False, False, True): ("e039ea9e7d59a4b2947ea101f513d7cc849010b2cd57821d9a90f3ffa42be606", "bb5a17019efd1cf674a7b16d779073883fb091a96cce9784864a7d7b74b64609"),
    ("loop", 1, 1, 1, "handelman", False, True, False): ("12d70df7a9f77a215b2effea8ba3dbad5b5621dec3e7ffbaed3cca3cb99eb8e1", "0067adda983059c3129cafe1f4a184e9f15a751f27647754ccc000a442e37b69"),
    ("loop", 1, 1, 1, "handelman", False, True, True): ("12d70df7a9f77a215b2effea8ba3dbad5b5621dec3e7ffbaed3cca3cb99eb8e1", "0067adda983059c3129cafe1f4a184e9f15a751f27647754ccc000a442e37b69"),
    ("loop", 1, 1, 1, "handelman", True, False, False): ("d113acfc796471dc7abc6668ea59546f790ab4217f125d4ef032eee94b02c8e8", "adb908589f20f06feac0c9a8e9ed022531f15d27a8297ffce8376926f912d6e9"),
    ("loop", 1, 1, 1, "handelman", True, False, True): ("d113acfc796471dc7abc6668ea59546f790ab4217f125d4ef032eee94b02c8e8", "adb908589f20f06feac0c9a8e9ed022531f15d27a8297ffce8376926f912d6e9"),
    ("loop", 1, 1, 1, "handelman", True, True, False): ("dd3a2c97ae051e4beaf65d3989729f5b6272e8849d9aed43f23b0e4ef39b1ef8", "763400f0a2f8a2664d528349d8a73731164b181d1db9bde933e3bedbbec78fac"),
    ("loop", 1, 1, 1, "handelman", True, True, True): ("dd3a2c97ae051e4beaf65d3989729f5b6272e8849d9aed43f23b0e4ef39b1ef8", "763400f0a2f8a2664d528349d8a73731164b181d1db9bde933e3bedbbec78fac"),
    ("loop", 1, 1, 2, "putinar", False, False, False): ("12d0dd50faa88fa1eb2c41a8d05e2fd61dd45ba2e35c6c542440d26ad20d99d6", "6328fa3d2ac58ffcfaa0cb86dbfc4d01890139a3ec4b70ab487de7e08b1c3863"),
    ("loop", 1, 1, 2, "putinar", False, False, True): ("df61afe2a4be89f6eae3658a421f1515c71ba94fd727698fa3cb73bbf6e0ed92", "7d3948595930a2bbf3132997eaaea9fab5d369ece5d2d651eb46e34decc60aef"),
    ("loop", 1, 1, 2, "putinar", False, True, False): ("cd09d1c09fab871c6122e674c0d2aac8f56dc4d98bb9df4b8e0dbbfd0e356847", "bf146d7c2b285f79237d8a0124a3a9b2a384b65db4fd2ab7e89e6fa76fc281af"),
    ("loop", 1, 1, 2, "putinar", False, True, True): ("fbfae22b0073df1156cb23c15c6d938a5446bfa79b685d53be70713c774aa173", "cab9921f14896634d01b97a68ef6863c24fdabca756d59dccaa19f68f23b1297"),
    ("loop", 1, 1, 2, "putinar", True, False, False): ("1160a74f32c6096bdb231f45a786bbb5b53138a18b882fb891729fffa84fdb3c", "dcc07f08409b4bfb51d3d60336fcbca6cf37b16b421d006fa36fd22f59d50e08"),
    ("loop", 1, 1, 2, "putinar", True, False, True): ("1fa3a4b84b526edcdd0f99d8541e701b2800c52553b1bff424c72fdda7778be4", "a693322a6a6ac191a2c47aa4e6ef9ed012ddc127e808e688bf4fd5b62820f617"),
    ("loop", 1, 1, 2, "putinar", True, True, False): ("20ca1881086b6d6c5dbb20486fa83dd9d105a76da856a4dde8d8a3b275c6051b", "eb60b6c7ed1f86b6596da016283d3acf4f6b4ed3aa06ebc0bc8bfcc283739c16"),
    ("loop", 1, 1, 2, "putinar", True, True, True): ("17e6d07e1eea87ac02e6b9e450a1de7949264796b06e36b527165fd101eb953b", "6ae8853ec235c31457278377b545d1bc14c25b0e705cf5c5166c259e828574eb"),
    ("loop", 1, 1, 2, "handelman", False, False, False): ("e039ea9e7d59a4b2947ea101f513d7cc849010b2cd57821d9a90f3ffa42be606", "bb5a17019efd1cf674a7b16d779073883fb091a96cce9784864a7d7b74b64609"),
    ("loop", 1, 1, 2, "handelman", False, False, True): ("e039ea9e7d59a4b2947ea101f513d7cc849010b2cd57821d9a90f3ffa42be606", "bb5a17019efd1cf674a7b16d779073883fb091a96cce9784864a7d7b74b64609"),
    ("loop", 1, 1, 2, "handelman", False, True, False): ("12d70df7a9f77a215b2effea8ba3dbad5b5621dec3e7ffbaed3cca3cb99eb8e1", "0067adda983059c3129cafe1f4a184e9f15a751f27647754ccc000a442e37b69"),
    ("loop", 1, 1, 2, "handelman", False, True, True): ("12d70df7a9f77a215b2effea8ba3dbad5b5621dec3e7ffbaed3cca3cb99eb8e1", "0067adda983059c3129cafe1f4a184e9f15a751f27647754ccc000a442e37b69"),
    ("loop", 1, 1, 2, "handelman", True, False, False): ("d113acfc796471dc7abc6668ea59546f790ab4217f125d4ef032eee94b02c8e8", "adb908589f20f06feac0c9a8e9ed022531f15d27a8297ffce8376926f912d6e9"),
    ("loop", 1, 1, 2, "handelman", True, False, True): ("d113acfc796471dc7abc6668ea59546f790ab4217f125d4ef032eee94b02c8e8", "adb908589f20f06feac0c9a8e9ed022531f15d27a8297ffce8376926f912d6e9"),
    ("loop", 1, 1, 2, "handelman", True, True, False): ("dd3a2c97ae051e4beaf65d3989729f5b6272e8849d9aed43f23b0e4ef39b1ef8", "763400f0a2f8a2664d528349d8a73731164b181d1db9bde933e3bedbbec78fac"),
    ("loop", 1, 1, 2, "handelman", True, True, True): ("dd3a2c97ae051e4beaf65d3989729f5b6272e8849d9aed43f23b0e4ef39b1ef8", "763400f0a2f8a2664d528349d8a73731164b181d1db9bde933e3bedbbec78fac"),
    ("loop", 1, 2, 1, "putinar", False, False, False): ("5a5af8355d25296865c9aa3f5b85dfb5ebc5f8ff894623e3ce637cc3b855be36", "81903ade86c185653836ef2d34a6e00159177fd79d4ecbc6befe033cfb04bde5"),
    ("loop", 1, 2, 1, "putinar", False, False, True): ("4bd230957e7490533a1954598c1c281cbc4d26b86159f2f247a2523167bb7fe3", "c1345fa640a350ef79249ea561858de115389a77c0c96fcc77e18f112462ee19"),
    ("loop", 1, 2, 1, "putinar", False, True, False): ("42383ba19345feb6818d1560d8f8f78b3dd8b25a5785f2a61ff1ee8131d0da2c", "631c908910521c9f9e2debc7321a3c82c0e35e149afec6c4d6682e4d064826ec"),
    ("loop", 1, 2, 1, "putinar", False, True, True): ("ac686b6458f9f2ef09915d7c5d2ea950f936c83ff3e870c01a2ef9c90687c4f5", "34b5fb9118c6ee94a81fd06234b83fa1f9315398aebcaf5ee9024fa15745c21a"),
    ("loop", 1, 2, 1, "putinar", True, False, False): ("6fc9aa44c738a13a01cae6500874596de0d01ddeff3f3b41a069fe707cdc1f70", "39e32524f8a23b407706e990fcf29c03a755b6326eb259cfea115fd5baec4253"),
    ("loop", 1, 2, 1, "putinar", True, False, True): ("ec91a9984ca39c366b236fa3572427979e2e8b7f1898b6c72945b3e874fd4bf4", "422ed9bb204bbb1eb9112a200414b4460d4b72ae199704666a47e1f6ed12a501"),
    ("loop", 1, 2, 1, "putinar", True, True, False): ("25c7c11a3f02b7a5a9779d3d5964a64539c55935e9b439038be0ff0bce99032c", "622480eaf9a14b5df5097d99518c490d33b53ff5f745448bd6d345b6cf017271"),
    ("loop", 1, 2, 1, "putinar", True, True, True): ("0ebb0a3d97013076f6619208c79dadc1b75eb0186911071c74a38d367fc4c961", "c9fd5f3b0b456b384f84d888ff63074e7a6ee5f0aa568abb3a9798f36c247dd5"),
    ("loop", 1, 2, 1, "handelman", False, False, False): ("28f8ba860311401707b4a2872962b85a5932222bcf6efcbfb762f8c2bbd00dce", "ac859a9a0ceba273c1934a759caf877c55ebffc05391436fca618e91f6c0d0eb"),
    ("loop", 1, 2, 1, "handelman", False, False, True): ("28f8ba860311401707b4a2872962b85a5932222bcf6efcbfb762f8c2bbd00dce", "ac859a9a0ceba273c1934a759caf877c55ebffc05391436fca618e91f6c0d0eb"),
    ("loop", 1, 2, 1, "handelman", False, True, False): ("10ef50178d24e32f81ba91248c3e09160e5dceff7d588ed99323280a786aafd1", "daa186c026c4628e4d8489a5440ac61ca3755198b9919a77b0091561dd711f91"),
    ("loop", 1, 2, 1, "handelman", False, True, True): ("10ef50178d24e32f81ba91248c3e09160e5dceff7d588ed99323280a786aafd1", "daa186c026c4628e4d8489a5440ac61ca3755198b9919a77b0091561dd711f91"),
    ("loop", 1, 2, 1, "handelman", True, False, False): ("9d88defdb15165e52b8b9e40c021168a413d788e0b86e9c129bf348889f4634f", "7273ce8e8a25414020c8625309055f9a7ff307475ae6d8ff7b12cf152631979f"),
    ("loop", 1, 2, 1, "handelman", True, False, True): ("9d88defdb15165e52b8b9e40c021168a413d788e0b86e9c129bf348889f4634f", "7273ce8e8a25414020c8625309055f9a7ff307475ae6d8ff7b12cf152631979f"),
    ("loop", 1, 2, 1, "handelman", True, True, False): ("c3f27cdf574cd918bfdcd3335cced179d04a6b9d9d47478edfcf673a34119e31", "57c0fd8dea9de88b7226bb5c4e3d4c24ff130b01ea3dbf3efe6bce40ed41d5e1"),
    ("loop", 1, 2, 1, "handelman", True, True, True): ("c3f27cdf574cd918bfdcd3335cced179d04a6b9d9d47478edfcf673a34119e31", "57c0fd8dea9de88b7226bb5c4e3d4c24ff130b01ea3dbf3efe6bce40ed41d5e1"),
    ("loop", 1, 2, 2, "putinar", False, False, False): ("d597df69b3861d17a131103f3ade7a69b6e38ad3f72022846300cdce214e3d6d", "71c1b7782b10159fa09ace3ad63ccc46d07e5ca01c60dc136ce6205d2d429665"),
    ("loop", 1, 2, 2, "putinar", False, False, True): ("28103cd020492a930bb7434f1dbf8411d5c6f958b86a81890ea0127ceb90c07f", "821dc3bb9286741fc2bbeabd85e5069b2086b2cf9b06af721742eeb951e0167d"),
    ("loop", 1, 2, 2, "putinar", False, True, False): ("6a368fb7ab356066d4b4353d8ded102ced998cb338b79cf36d7179a1386d7f30", "6e130893cf3f4fc4aa486c62912660d23750515cb0855597d9c859bd09b17920"),
    ("loop", 1, 2, 2, "putinar", False, True, True): ("a5f0413dc63dea3ad9f21ee95fe2c843b51d4133f14a7e0f280082897f8d96ee", "7ca1dde028d03c20924746d88c82dd948c4f96ce1e0f1a78520b3d47786e39dd"),
    ("loop", 1, 2, 2, "putinar", True, False, False): ("0e0b7c1013e9044cdcc6c100e789b49da3026356925a08d78b592f4457c44f32", "5a23c57585701b585e6e6f8f0a9c05dabbee4496da7eda7afc39e10f3b198b62"),
    ("loop", 1, 2, 2, "putinar", True, False, True): ("66018fba265078b0865adc42a09a2fc0bbe028f0d3d912413e01d1ba890d96b5", "13e6be02058f48ad87233e46ab925a4fa9cc112ac30e51a8fa667112b7356520"),
    ("loop", 1, 2, 2, "putinar", True, True, False): ("2b2ed9dfac42a2cfbf316c90f8515d8dcddf757429334ae7f1dac9b1323c0f36", "fe9165b3397be79d40f32be53fd514b98447083650026d420eb645e3f4736a81"),
    ("loop", 1, 2, 2, "putinar", True, True, True): ("aef0cdef0541d8176d00e52535989f922fd0a62de8de2da7720862a4aac6ac97", "d1f7acf0405cf56f0742a025cc6789e19661ae1c14872ed0a307ae428acfb7f7"),
    ("loop", 1, 2, 2, "handelman", False, False, False): ("28f8ba860311401707b4a2872962b85a5932222bcf6efcbfb762f8c2bbd00dce", "ac859a9a0ceba273c1934a759caf877c55ebffc05391436fca618e91f6c0d0eb"),
    ("loop", 1, 2, 2, "handelman", False, False, True): ("28f8ba860311401707b4a2872962b85a5932222bcf6efcbfb762f8c2bbd00dce", "ac859a9a0ceba273c1934a759caf877c55ebffc05391436fca618e91f6c0d0eb"),
    ("loop", 1, 2, 2, "handelman", False, True, False): ("10ef50178d24e32f81ba91248c3e09160e5dceff7d588ed99323280a786aafd1", "daa186c026c4628e4d8489a5440ac61ca3755198b9919a77b0091561dd711f91"),
    ("loop", 1, 2, 2, "handelman", False, True, True): ("10ef50178d24e32f81ba91248c3e09160e5dceff7d588ed99323280a786aafd1", "daa186c026c4628e4d8489a5440ac61ca3755198b9919a77b0091561dd711f91"),
    ("loop", 1, 2, 2, "handelman", True, False, False): ("9d88defdb15165e52b8b9e40c021168a413d788e0b86e9c129bf348889f4634f", "7273ce8e8a25414020c8625309055f9a7ff307475ae6d8ff7b12cf152631979f"),
    ("loop", 1, 2, 2, "handelman", True, False, True): ("9d88defdb15165e52b8b9e40c021168a413d788e0b86e9c129bf348889f4634f", "7273ce8e8a25414020c8625309055f9a7ff307475ae6d8ff7b12cf152631979f"),
    ("loop", 1, 2, 2, "handelman", True, True, False): ("c3f27cdf574cd918bfdcd3335cced179d04a6b9d9d47478edfcf673a34119e31", "57c0fd8dea9de88b7226bb5c4e3d4c24ff130b01ea3dbf3efe6bce40ed41d5e1"),
    ("loop", 1, 2, 2, "handelman", True, True, True): ("c3f27cdf574cd918bfdcd3335cced179d04a6b9d9d47478edfcf673a34119e31", "57c0fd8dea9de88b7226bb5c4e3d4c24ff130b01ea3dbf3efe6bce40ed41d5e1"),
    ("loop", 2, 1, 1, "putinar", False, False, False): ("dee0f4516fdbbdf27fa48a0a75e228b500213e50b6e0cbce4879284730da3020", "16fc6e0843377117082cad3bc6b1c9e478d7f8cf72aa3a6457ee3832a4f736e5"),
    ("loop", 2, 1, 1, "putinar", False, False, True): ("52023600f9d38c5c419ec0d94bdc9de11115cdfab68bb32665f86b308b278afb", "36a001e9c02126d111ed79a05b8c42746500a2315a80bc6eac67717c86f0ad11"),
    ("loop", 2, 1, 1, "putinar", False, True, False): ("f2c04f50265ea8531b7f07c39f8c811aa5aefa2c1387315c6a9b4f27099def39", "1842839aaaf45a30924a68858c5cc377ed133ccea3af9fe758d1b1b6d7b2eb9b"),
    ("loop", 2, 1, 1, "putinar", False, True, True): ("74727cba92f57f6631bd07f3bc7d0d5d70ee5c330e68848a1cbf8d719a37d661", "b35f787544e75e93f3ffae61dc015e84aacb5c333eb6c31bb7ff54ab7628ef55"),
    ("loop", 2, 1, 1, "putinar", True, False, False): ("f49093d8f2aa1a4238e523f4e92ea145a0be676be3a825f74f0a06d180df3f10", "004e91314a92a954e5316801ab98f3cd5fc1ef07de5576a3cff715e43d72afe3"),
    ("loop", 2, 1, 1, "putinar", True, False, True): ("fb7803c017a29db19c5c635c4466681ee3abffcd776030a06014b0eae55d3359", "187bb22395aaaa0e4ecc524a0cf7f1b981ac3f52ff7790c763ba20d76c8a9f3b"),
    ("loop", 2, 1, 1, "putinar", True, True, False): ("517cc3a79daf8da828a526fc2b988caebe08b7bd34fb67717edf0a17297030a7", "cbd4cac146fe4968ba1779b27262cbe3348686bf473be8b500178f2b6b5a4696"),
    ("loop", 2, 1, 1, "putinar", True, True, True): ("b6b94ca86d8e4715dcefb4f65203a5eb5a4f0d443ad829b42d3f80a2acb49ce5", "9b9d0eb0f420b894392458f4c763f165811a378ece72142546f4bc8e6f6d91ec"),
    ("loop", 2, 1, 1, "handelman", False, False, False): ("b9c1f92ae4b01b5ccba27ecb9b1ccd383c60e107149b3bdb966ad5c705225c53", "c2ae43ceb732838d8c2ee0b2d87de81bdf98f9d332e39ab2e558dc8d3d16d761"),
    ("loop", 2, 1, 1, "handelman", False, False, True): ("b9c1f92ae4b01b5ccba27ecb9b1ccd383c60e107149b3bdb966ad5c705225c53", "c2ae43ceb732838d8c2ee0b2d87de81bdf98f9d332e39ab2e558dc8d3d16d761"),
    ("loop", 2, 1, 1, "handelman", False, True, False): ("d41a5e183c4ba7605e59ab0324d0b0fe28d2925c2a7a9b3182b1d1f99835901b", "2685ff797cb678984ccc9694c28b2ff9846cae3347e30c2f7ec28afe2fded3f7"),
    ("loop", 2, 1, 1, "handelman", False, True, True): ("d41a5e183c4ba7605e59ab0324d0b0fe28d2925c2a7a9b3182b1d1f99835901b", "2685ff797cb678984ccc9694c28b2ff9846cae3347e30c2f7ec28afe2fded3f7"),
    ("loop", 2, 1, 1, "handelman", True, False, False): ("b40237d840f56a72e96d25842b4bf3d5bb31ce9a48a751762f30097ec3ca5699", "3e3aba1a9b936f71318e7c9a4f4f2dddac3e089991e0434444ecdd07859a9462"),
    ("loop", 2, 1, 1, "handelman", True, False, True): ("b40237d840f56a72e96d25842b4bf3d5bb31ce9a48a751762f30097ec3ca5699", "3e3aba1a9b936f71318e7c9a4f4f2dddac3e089991e0434444ecdd07859a9462"),
    ("loop", 2, 1, 1, "handelman", True, True, False): ("bab5cff9a4ef30b31289c79d73044a97641593d72be7494a6a6a35c72d76038c", "96c52f716078024ca958f39bbb47ff50d5a1ed2bded001bb658fc86028d0a7a2"),
    ("loop", 2, 1, 1, "handelman", True, True, True): ("bab5cff9a4ef30b31289c79d73044a97641593d72be7494a6a6a35c72d76038c", "96c52f716078024ca958f39bbb47ff50d5a1ed2bded001bb658fc86028d0a7a2"),
    ("loop", 2, 1, 2, "putinar", False, False, False): ("da90fa95b8f84bcd73cbe1f04b1e99d6159db4270a66db175757cf4654c29aa7", "ca6a99930c8a7e6bfe50c8a7273e9b66ef8f30c386124f43caeb85816e4a40f9"),
    ("loop", 2, 1, 2, "putinar", False, False, True): ("208df605ad23eab9cca00ce7470674a18c178803b3e6886990a8e4eb6b81782f", "22fff65f7437409b11fa9efa2d30d2452d373e3ecf13d43aa83097f8a2d23dfe"),
    ("loop", 2, 1, 2, "putinar", False, True, False): ("9059b05a0bf444a2dd3f891781afb96781142bc53d8dcf94d9cd58e14130b62f", "e8202430135791187ad935ffb7aa4dad2db77ebb34b257bc30e54808651fc6eb"),
    ("loop", 2, 1, 2, "putinar", False, True, True): ("a17867e83ae4b1cd655415889ff6ff63c7eeadac36b1838855dcad67211dc404", "6bd77a747196c31f0649716b9eb73ab8e67d81db79b292f487d9e4b2baf79de6"),
    ("loop", 2, 1, 2, "putinar", True, False, False): ("c496a444e233b73e34abb01f0250934d3cf9f02b1af3369d2b472503ab977c49", "40d4971bd480c132bf18447c4a8f8d9850b8fc6a55375e75c7b523ab730bbb49"),
    ("loop", 2, 1, 2, "putinar", True, False, True): ("78a3c39cd6cc2825dd709d8c72d6abdb49f2cae99cd1c087ba2064ceed6fb21f", "9d90f063ab1f2381b31c05bd1981c57efed5e8593d6d48cbc519be673b51a38d"),
    ("loop", 2, 1, 2, "putinar", True, True, False): ("84660ce20daced3f21ee977bf8de2f1d46c6f44b4fd09297f38c3704c9ce2bb3", "bcbc765e9d243a54ce81210407319b5032576bf7a2d3122132503ebe14468ac8"),
    ("loop", 2, 1, 2, "putinar", True, True, True): ("58cfb08e446903af3c40ac9afb9d8e8423b484839ec0b307e16b33ba9e1fb0c9", "3813a6505a9ab2d90865efd2f9afdad8a4a907397b339fcf92ed0b092841a0ae"),
    ("loop", 2, 1, 2, "handelman", False, False, False): ("b9c1f92ae4b01b5ccba27ecb9b1ccd383c60e107149b3bdb966ad5c705225c53", "c2ae43ceb732838d8c2ee0b2d87de81bdf98f9d332e39ab2e558dc8d3d16d761"),
    ("loop", 2, 1, 2, "handelman", False, False, True): ("b9c1f92ae4b01b5ccba27ecb9b1ccd383c60e107149b3bdb966ad5c705225c53", "c2ae43ceb732838d8c2ee0b2d87de81bdf98f9d332e39ab2e558dc8d3d16d761"),
    ("loop", 2, 1, 2, "handelman", False, True, False): ("d41a5e183c4ba7605e59ab0324d0b0fe28d2925c2a7a9b3182b1d1f99835901b", "2685ff797cb678984ccc9694c28b2ff9846cae3347e30c2f7ec28afe2fded3f7"),
    ("loop", 2, 1, 2, "handelman", False, True, True): ("d41a5e183c4ba7605e59ab0324d0b0fe28d2925c2a7a9b3182b1d1f99835901b", "2685ff797cb678984ccc9694c28b2ff9846cae3347e30c2f7ec28afe2fded3f7"),
    ("loop", 2, 1, 2, "handelman", True, False, False): ("b40237d840f56a72e96d25842b4bf3d5bb31ce9a48a751762f30097ec3ca5699", "3e3aba1a9b936f71318e7c9a4f4f2dddac3e089991e0434444ecdd07859a9462"),
    ("loop", 2, 1, 2, "handelman", True, False, True): ("b40237d840f56a72e96d25842b4bf3d5bb31ce9a48a751762f30097ec3ca5699", "3e3aba1a9b936f71318e7c9a4f4f2dddac3e089991e0434444ecdd07859a9462"),
    ("loop", 2, 1, 2, "handelman", True, True, False): ("bab5cff9a4ef30b31289c79d73044a97641593d72be7494a6a6a35c72d76038c", "96c52f716078024ca958f39bbb47ff50d5a1ed2bded001bb658fc86028d0a7a2"),
    ("loop", 2, 1, 2, "handelman", True, True, True): ("bab5cff9a4ef30b31289c79d73044a97641593d72be7494a6a6a35c72d76038c", "96c52f716078024ca958f39bbb47ff50d5a1ed2bded001bb658fc86028d0a7a2"),
    ("loop", 2, 2, 1, "putinar", False, False, False): ("508d0f40d95ba789b437263ccb8b5da1c99414eb2924c2a3d05b3d79dafcf1f1", "b7463b7aa114c9b2f37ed1a8c674fad6637beb9a6295e0449e979e764c12d882"),
    ("loop", 2, 2, 1, "putinar", False, False, True): ("85b12cfd2d599a8609f1292cbd673021c5d4cea794e88330e18c0887dc01c62d", "4ff9351a0817cd9000907b600c9f99969d4b9e56de29e4e62fc1ea1166e9de35"),
    ("loop", 2, 2, 1, "putinar", False, True, False): ("92b0fb9758be12c11a02ad4e5ebd314945b6f7ad2c4f9ba91e1ade3b5a20485d", "3198fb7539bb8c626761163578118b2d10b806402057e178e05bb5b8a2efd08c"),
    ("loop", 2, 2, 1, "putinar", False, True, True): ("277a8235951ad05d569e81312605b4836b95989c18bc42edbd49a9b58e3febed", "9f15fabeb4ba31a2a3552a035f7464e144c107899630f06116d7c23fc264d423"),
    ("loop", 2, 2, 1, "putinar", True, False, False): ("12ef39583f5f366056385a4ddda24ce131206896e1b230b66a5e3f4b8e446f16", "f7cc70cc4c670ad6470ef6cdf750909504f6a8b1c31e626c111c78a583f570c3"),
    ("loop", 2, 2, 1, "putinar", True, False, True): ("fbb5ae8e2d315997d38124b7894728d6b135a88eeee139ef0661e247101dcc19", "74b35f7844a513140c638df3469fef3f3e3dcc7786ccd9ca37556796998509b7"),
    ("loop", 2, 2, 1, "putinar", True, True, False): ("90dc204169700a854d30c8d83bade2e8765ca9282a2b16e576703f5979e8f697", "6a6cf727e50d29e488055fd7679bbe0df934363e81a6087f94e94e3e80101de1"),
    ("loop", 2, 2, 1, "putinar", True, True, True): ("b321a6683b73d8c355e4010a64d9f07cd3ab3bd6d8391b29f5cb44ee1971d0bb", "6b91d3f0e0269561877c9a43923aca8ff9e012a5eaf27ec5b24e24ad66479e53"),
    ("loop", 2, 2, 1, "handelman", False, False, False): ("6e35351a944a23c1b82604e7b8816ffd71546c8df69042a02ce88913a859e8f8", "2fddae073e3e801b45df4a9d9a4d1e16f4fad709f5e6a0390f0a996401dcfc43"),
    ("loop", 2, 2, 1, "handelman", False, False, True): ("6e35351a944a23c1b82604e7b8816ffd71546c8df69042a02ce88913a859e8f8", "2fddae073e3e801b45df4a9d9a4d1e16f4fad709f5e6a0390f0a996401dcfc43"),
    ("loop", 2, 2, 1, "handelman", False, True, False): ("175096915c5ad978341220fd1fa2d7c2d9abd8a0d64bd821d9c0e4362fda9ed9", "3d7471977e910a25646fc1708a25df5182c7c672ea479db2c1bb6b93306da0e6"),
    ("loop", 2, 2, 1, "handelman", False, True, True): ("175096915c5ad978341220fd1fa2d7c2d9abd8a0d64bd821d9c0e4362fda9ed9", "3d7471977e910a25646fc1708a25df5182c7c672ea479db2c1bb6b93306da0e6"),
    ("loop", 2, 2, 1, "handelman", True, False, False): ("d3235e19bbd1cc3e4f1def623db4c3169290a9ed6e0e85ef2c1bb06aed119bd4", "319109780dd0cc3ec348bb811cc8eacff10d739e54c84840e412d6e4cab58b52"),
    ("loop", 2, 2, 1, "handelman", True, False, True): ("d3235e19bbd1cc3e4f1def623db4c3169290a9ed6e0e85ef2c1bb06aed119bd4", "319109780dd0cc3ec348bb811cc8eacff10d739e54c84840e412d6e4cab58b52"),
    ("loop", 2, 2, 1, "handelman", True, True, False): ("e074f347d6f0f621314d4dfdae53f84fd2d7362a2d3f34822d3e52a0055e455a", "9e4b816d663c20fab14e98cb60180563140c3e2530f29a228c2d4bfa5dc89753"),
    ("loop", 2, 2, 1, "handelman", True, True, True): ("e074f347d6f0f621314d4dfdae53f84fd2d7362a2d3f34822d3e52a0055e455a", "9e4b816d663c20fab14e98cb60180563140c3e2530f29a228c2d4bfa5dc89753"),
    ("loop", 2, 2, 2, "putinar", False, False, False): ("6fbd658e7f6ed0f0e758a45ff14eb82d587ef1d7e08e2b4a606dc5505641d63d", "45ca330205cd1764b3115761677e8c5a0372e00a0073ded2c42a090eafd4193e"),
    ("loop", 2, 2, 2, "putinar", False, False, True): ("e2bf6acd6bdffe0a42b774444a41e6243992cac15ed7d3696443e18beb8d2394", "e460681b42b5031ec025c04ecb0e0dc269ebf72f5d42eee78964a08eccdf9dab"),
    ("loop", 2, 2, 2, "putinar", False, True, False): ("c52f91ab3616bd5c590a1ce95dd3182f36d85c9d0f666b4daccbc5b6c9957e87", "a3c93152d8bae71a4e6a6e1d72f95e0ef118420259bf2369df5022f0f8ca005b"),
    ("loop", 2, 2, 2, "putinar", False, True, True): ("64ed4f2a18439aa187fe0f8209e2ef78264370a012b1c19fe134e9a890045f11", "1bd828aa15d9a0c1d7583d202ef4eab29c7b1dbb954e06137eda6fd740637ab2"),
    ("loop", 2, 2, 2, "putinar", True, False, False): ("c0350af12c2f9f235df54a421c0a83f5d53e5bb9a74ea014ff9b3ff49f273476", "10990fc5334e75b76e2c5ec45ccae2cb9fb836a275423cf81255f8dc081e610e"),
    ("loop", 2, 2, 2, "putinar", True, False, True): ("e7fce13fc46fbfd4175a59a82ddca34b4561bb641fe81062d588c5119c26e3fb", "69807a49b77482837cb63c3315c2e7fc933d2b7affb09a2e5dc8833c8555b53a"),
    ("loop", 2, 2, 2, "putinar", True, True, False): ("e847f586cb1a8f62064b0be5bea4e6f9469f816cea0379c42bff05bd27d68678", "636e27f00663367e36b9245a56e25c658e77bb5b122c68963f2ae46c8d1b7fe9"),
    ("loop", 2, 2, 2, "putinar", True, True, True): ("4c42360bf9d1018edae892d9ac5f2de0b5dcdd448cb12395fbc81582f4f168e8", "2287fce5b9431e33ee42b913ae12f3cd0479a217d19aadd66cad23c18b132d1a"),
    ("loop", 2, 2, 2, "handelman", False, False, False): ("6e35351a944a23c1b82604e7b8816ffd71546c8df69042a02ce88913a859e8f8", "2fddae073e3e801b45df4a9d9a4d1e16f4fad709f5e6a0390f0a996401dcfc43"),
    ("loop", 2, 2, 2, "handelman", False, False, True): ("6e35351a944a23c1b82604e7b8816ffd71546c8df69042a02ce88913a859e8f8", "2fddae073e3e801b45df4a9d9a4d1e16f4fad709f5e6a0390f0a996401dcfc43"),
    ("loop", 2, 2, 2, "handelman", False, True, False): ("175096915c5ad978341220fd1fa2d7c2d9abd8a0d64bd821d9c0e4362fda9ed9", "3d7471977e910a25646fc1708a25df5182c7c672ea479db2c1bb6b93306da0e6"),
    ("loop", 2, 2, 2, "handelman", False, True, True): ("175096915c5ad978341220fd1fa2d7c2d9abd8a0d64bd821d9c0e4362fda9ed9", "3d7471977e910a25646fc1708a25df5182c7c672ea479db2c1bb6b93306da0e6"),
    ("loop", 2, 2, 2, "handelman", True, False, False): ("d3235e19bbd1cc3e4f1def623db4c3169290a9ed6e0e85ef2c1bb06aed119bd4", "319109780dd0cc3ec348bb811cc8eacff10d739e54c84840e412d6e4cab58b52"),
    ("loop", 2, 2, 2, "handelman", True, False, True): ("d3235e19bbd1cc3e4f1def623db4c3169290a9ed6e0e85ef2c1bb06aed119bd4", "319109780dd0cc3ec348bb811cc8eacff10d739e54c84840e412d6e4cab58b52"),
    ("loop", 2, 2, 2, "handelman", True, True, False): ("e074f347d6f0f621314d4dfdae53f84fd2d7362a2d3f34822d3e52a0055e455a", "9e4b816d663c20fab14e98cb60180563140c3e2530f29a228c2d4bfa5dc89753"),
    ("loop", 2, 2, 2, "handelman", True, True, True): ("e074f347d6f0f621314d4dfdae53f84fd2d7362a2d3f34822d3e52a0055e455a", "9e4b816d663c20fab14e98cb60180563140c3e2530f29a228c2d4bfa5dc89753"),
}

#: (program, degree, with_witness) -> (rows digest, labels digest) of Handelman with
#: ``max_factors=1`` on the pairs of ``SynthesisOptions(degree=degree, upsilon=1)``.
GRID_FARKAS = {
    ("branch", 1, False): ("00e8a8c5238945e5059d00c8dde1dedf41e7c973cce13d151e48b372b695b74a", "9fc0d08388172a599b7f3e974efd9deb365b598cf1a6a32b89f9abeb6146b57f"),
    ("branch", 1, True): ("d9c0e0d2e3ae1ed4117f82ac125557088e28100d021845747cea8a0387267361", "4b0f9922452ad3a468c29e775fe7d8716bbf88e76353462e45731a0eb2c6719c"),
    ("branch", 2, False): ("bf5d95d5db5c465203b91955f4326213bd8d7592380fb131d0488dee78397aab", "c5484f9c34a9dfd862898897a8d89b6e67c06a4c745754b980f6645b7548f712"),
    ("branch", 2, True): ("e6e9382bed18f852f76cb000331e4d29cffe49cefca177d38b9b1e2207d23c05", "04601e3189fbff21320233633b7856d4ba8334debbd4e7ab90b490f57a3316e4"),
    ("loop", 1, False): ("6b88000e8b69585942cbaef4fafcd34fa71216132c6fbfaf67c29d023adc41c0", "6a6bbbae658e4e52a41650f25861d295f4fe4f8d60a42a12120c55c472f7c455"),
    ("loop", 1, True): ("be2c61585fed4fc144f380d4f21cbca59abbac48bac17dd274fe8cc7f55f4f61", "e0ac94a604786e12fea8407280dcb361ec0dd45616aab856aab6714d2b47f6a6"),
    ("loop", 2, False): ("43948caae4f16d3e7f74149de6908586e0ce5152721c1d44ac61319584ba8bea", "1578218596448e3bb164c80e4a7f0c373b3fb1cc90fd36032f4761ab2d077c13"),
    ("loop", 2, True): ("703fa35b9ea1755800638b07708db37bf9a8deabece503424ec74290372e9ccd", "4e8a180aa3dd1b758e3dbe7ba7aac78601489e8f12573c1aa4e72c01e3ce62a3"),
}

#: The two small programs of the option grid, frozen with their digests.
GRID_PROGRAMS = {
    "loop": ("""
count(n) {
    i := 0;
    while i <= n do
        i := i + 1
    od;
    return i
}
""", {"count": {1: "n >= 0"}}),
    "branch": ("""
gain(x) {
    y := 0;
    while x >= 1 do
        if * then y := y + x else y := y + 1 fi;
        x := x - 1
    od;
    return y
}
""", {"gain": {1: "x >= 0"}}),
}


def pairs_digest(pairs) -> str:
    digest = hashlib.sha256()
    for pair in pairs:
        digest.update(repr(pair.name).encode())
        for polynomial in (*pair.assumptions, pair.conclusion):
            terms = tuple((m.items, c.numerator, c.denominator) for m, c in polynomial.items())
            digest.update(repr(terms).encode())
    return digest.hexdigest()


def labels_digest(system) -> str:
    """sha256 of what the rows digest leaves out: row origins and pair provenance."""
    digest = hashlib.sha256()
    digest.update(repr(system.rows.origins()).encode())
    digest.update(repr([repr(provenance) for provenance in system.provenance]).encode())
    return digest.hexdigest()


def quick_task(name, translation, upsilon):
    benchmark = get_benchmark(name)
    options = benchmark.options(
        upsilon=upsilon,
        translation=translation,
        strategy="gauss-newton",
        verify="exact",
        portfolio=("gauss-newton",),
    )
    return build_task(benchmark.source, benchmark.precondition, benchmark.objective(), options)


@pytest.mark.parametrize("name, translation", sorted(GOLDEN))
def test_reduction_matches_its_frozen_digests(rows_digest, name, translation):
    task = quick_task(name, translation, upsilon=1)
    pairs, rows = GOLDEN[(name, translation)]
    assert pairs_digest(task.pairs) == pairs, "Step-2 pairs moved"
    assert rows_digest(task.system.rows) == rows, "Step-3 row arrays moved"


@pytest.mark.parametrize("name", sorted(UPSILON_2))
def test_upsilon_2_rows_match_their_frozen_digests(rows_digest, name):
    task = quick_task(name, "putinar", upsilon=2)
    assert rows_digest(task.system.rows) == UPSILON_2[name]


@pytest.mark.parametrize("name", sorted(FARKAS))
def test_farkas_rows_match_their_frozen_digests(rows_digest, name):
    task = quick_task(name, "handelman", upsilon=1)
    assert rows_digest(farkas_translate(task.pairs).rows) == FARKAS[name]


@pytest.mark.parametrize(
    "program, degree, conjuncts, upsilon, translation, entry, witness, sos", sorted(GRID)
)
def test_option_grid_matches_its_frozen_digests(
    rows_digest, program, degree, conjuncts, upsilon, translation, entry, witness, sos
):
    source, precondition = GRID_PROGRAMS[program]
    options = SynthesisOptions(
        degree=degree,
        conjuncts=conjuncts,
        upsilon=upsilon,
        translation=translation,
        add_entry_assumptions=entry,
        with_witness=witness,
        encode_sos=sos,
    )
    task = build_task(source, precondition, None, options)
    rows, labels = GRID[(program, degree, conjuncts, upsilon, translation, entry, witness, sos)]
    assert rows_digest(task.system.rows) == rows, "Step-3 row arrays moved"
    assert labels_digest(task.system) == labels, "Step-3 origins or provenance moved"


@pytest.mark.parametrize("program, degree, witness", sorted(GRID_FARKAS))
def test_single_factor_handelman_matches_its_frozen_digests(rows_digest, program, degree, witness):
    source, precondition = GRID_PROGRAMS[program]
    pairs = build_task(source, precondition, options=SynthesisOptions(degree=degree, upsilon=1)).pairs
    system = handelman_translate(pairs, max_factors=1, with_witness=witness)
    rows, labels = GRID_FARKAS[(program, degree, witness)]
    assert rows_digest(system.rows) == rows, "Step-3 row arrays moved"
    assert labels_digest(system) == labels, "Step-3 origins or provenance moved"
