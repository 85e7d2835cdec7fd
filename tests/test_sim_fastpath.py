"""Golden digests of the simulator's three hot loops.

The PE lane walk (:class:`PELane`), the event engine's cycle loop
(:class:`EventDrivenTensaurus`) and the HBM burst service loop
(:class:`StreamMemory`) each kept a per-record Python reference loop
beside the vectorized one. ``SIM_GOLDEN`` holds sha256 digests computed
from those reference loops on the fixed-seed grids below before they
were deleted; a match proves the one remaining path reproduces them bit
for bit:

- event engine: cycles, ops, output bytes, the stall breakdown, the
  lane-busy vector, injected stalls and fault events over kernels, lane
  counts, queue depths and HBM-stall plans, plus a benchmark-scale tile
  and a metrics snapshot;
- PE lanes: every lane's result and output bytes, and the ``(cycle,
  event, detail)`` trace it records into a list;
- HBM: cycles, useful and fetched bytes of random and degenerate traces
  on three memory configs, plus a metrics snapshot.

Each grid case runs twice against the same digest: as a plain call, and
under a micro-mode tracer (``obs.observe(micro=True)``), which switches
the event engine to its instrumented timing loop, makes every PE lane
derive its trace and turns on the HBM occupancy histogram. Observation
must not move a single cycle or output bit.

A mismatch names its case. Never re-baseline a digest to make a change
pass: a moved digest means the model changed.
"""

import contextlib
import json

import numpy as np
import pytest

from repro import obs
from repro.datasets.generators import random_sparse_tensor
from repro.formats import CISSMatrix, CISSTensor, COOMatrix
from repro.sim.config import MemoryConfig, TensaurusConfig
from repro.sim.costs import kernel_costs
from repro.sim.event import EventDrivenTensaurus
from repro.sim.faults import FaultPlan
from repro.sim.memory import StreamMemory
from repro.sim.pe import PELane
from repro.util.rng import make_rng

from .conftest import digest, random_tensor

RANK = 8
# The plain and micro-observed legs. The ids are the names the two legs
# had when they were the fast and jit engines, each compared with the
# reference loops.
MICRO = [pytest.param(False, id="fast"), pytest.param(True, id="jit")]

SIM_GOLDEN = {
    "event/benchmark-scale": "92a8ce335f1380e1bb6f3cd8b69a78ff5d73e5b8f5f5d7b7029a553f90b66e37",
    "event/hbm-stall/rate0.15/each9": "09b315e5923c9bfd5a777a47b8d407d9f98cd7e83891e748f308a0aa039b7335",
    "event/hbm-stall/rate0.6/each25": "cc723de69d582b084e608d2b4a6efde72d977a6df4be0613521ac906694f109b",
    "event/hbm-stall/rate1.0/each3": "c907e5b493237e6eea37732a822c386ce183fd1df0afd54824d4d4be781ddc88",
    "event/metrics": "753905e2a56a5d03a53ef90aec8eb84792d50e02bf619c6d6f79dd5dc84c5a2e",
    "event/spmm/lanes1": "187f85160887ddfeb499c66e41acb07d0bdbeabc9ddd58d88cedc3a37a49bc25",
    "event/spmm/lanes4": "16f8e4668bdad0023b5c99d4320542d79911461ea7882424aa0b7f1086e5e832",
    "event/spmm/lanes8": "ec8dd029a36bd458405ddc700e4746cb2ab7046326756b6ead0d6f596366f756",
    "event/spmttkrp/lanes1/seed0/qd1": "8823cab175b2f3025d07c685201c268a17ee76a969b4fbbea09ff525cff1db5b",
    "event/spmttkrp/lanes1/seed0/qd4": "453bb73bd6167d8cdf06e5510ebc904c2d6244ad76e493fe83427ec5f2160322",
    "event/spmttkrp/lanes1/seed1/qd1": "7a99e86b905d7031dd8228b7eb45486300eca51cbd088ef0e85cff409c3a6afc",
    "event/spmttkrp/lanes1/seed1/qd4": "99897bd29fd273dc02e9af0a93d1f4037ec6ea9e4d269c04d64cb812528c6b50",
    "event/spmttkrp/lanes3/seed0/qd1": "d7537c17c1ed3f807687265f2ccd05363222164c42dd50f7e24062ce045c1426",
    "event/spmttkrp/lanes3/seed0/qd4": "b41b350620eb510c22848bfcdf62aed83b7c39d210a2cc16932ead9941d7322d",
    "event/spmttkrp/lanes3/seed1/qd1": "85834d9f194a1ec73985ce3679729e92be0d3eefd6d516405992718bc64b735c",
    "event/spmttkrp/lanes3/seed1/qd4": "48188b495c88b79cc5c640d7a87351e48051a7a03155fd1a71e5526bede424b0",
    "event/spmttkrp/lanes8/seed0/qd1": "4e0ea689935e77e14d54740a5db3fe04e39b28fd71d0c2c119344a0cb30eaf4c",
    "event/spmttkrp/lanes8/seed0/qd4": "af055505578e009abd33adbf2e4a7d9d7db78167f464f81facde2eb7bd181217",
    "event/spmttkrp/lanes8/seed1/qd1": "cb827d3701bf575e589b2fb82a2cf5db9b31c7b4b1538a3127f33863b3a6d82a",
    "event/spmttkrp/lanes8/seed1/qd4": "3fd22b191a8fdf663b3ac39abde2901b73dae7182c5b65000c16c5066d5e95fb",
    "event/spmttkrp/lanes8/seed3": "4b25684dd7c1ccd889d3fdaaaeaa8868f2895b520bba6ba4a6dfdcea28e405bc",
    "event/spmv/lanes1": "f04368d05d57d3f99b3e2651002e4b304527a3be3798a9b0312005119222e425",
    "event/spmv/lanes4": "cabe2a6ded3f30cce1234dab9f6ab6fe7860da7f24b9b8e3823dd95df9ecdd7d",
    "event/spmv/lanes8": "be213ecd59f69644d61dc658d54348dd28164c510379ef78dafcbb511e40f524",
    "event/spttmc/lanes1/seed0/qd1": "b65dbd6dbf98bb311b83ea6138ca5faf0d619f11e8376b73f8e4f46a81aa480d",
    "event/spttmc/lanes1/seed0/qd4": "0f80569a2dac4be8ce3d72d11809cee6b880bb630199e8ff0607636dc2423057",
    "event/spttmc/lanes1/seed1/qd1": "8c987097366984ca3379b5560826b2639e971f27509d82f5bd395fb43e7c08b1",
    "event/spttmc/lanes1/seed1/qd4": "25477ba9a68ae59680e9424e59bc6003432b0881cc05b0d6c982bb2072892ded",
    "event/spttmc/lanes3/seed0/qd1": "098081ffe448dcd5299246c1250efcbe599324440d22a01fa84cf39092b43ba6",
    "event/spttmc/lanes3/seed0/qd4": "1417dc62bbf20c504fe7c9856f8c77c5a39d86928fbbd7d3d226a89cb753e6ae",
    "event/spttmc/lanes3/seed1/qd1": "bdc26b4869c728c98cc39325a23b84f191df792e4669c6058e0e5ac136866871",
    "event/spttmc/lanes3/seed1/qd4": "800581748122bda73c2df32ac90cff98d4401ece1f1e9da7e4bfa943584ba655",
    "event/spttmc/lanes8/seed0/qd1": "dc729d83cc401e62f5b60bb9423b3cef93b6ea8738793c7a63ce11a29f86e64b",
    "event/spttmc/lanes8/seed0/qd4": "18186cb7ddfdb5148e431a5b8efbcfab9c70d519745035ef0742a7b528307046",
    "event/spttmc/lanes8/seed1/qd1": "f15f349df27687c473a1706dcca9c88de8c48468439f6b415d84f059e4bd0616",
    "event/spttmc/lanes8/seed1/qd4": "f13fae766c2456befe81d05affc0ee905cb1608922772f25d6783a42add19e7b",
    "hbm/degenerate0": "d4a9426132e9abd4fef2b7d21bd8928227cc45c36649d9857f8895a2284a0a72",
    "hbm/degenerate1": "d4a9426132e9abd4fef2b7d21bd8928227cc45c36649d9857f8895a2284a0a72",
    "hbm/degenerate2": "bd696fd212021f6e940cd09f0d91669b4641bca8b5abcda7f7e7b9bc499e9094",
    "hbm/degenerate3": "e0d2d07a3b8c9fcbbd2db1b86131818d5a28ecfbb70ad73db99b0ad574594b10",
    "hbm/hbm-like/seed0": "84d70ceac42818809e8521009494a97ec4790cb57142d61b808c23d8026bbd0c",
    "hbm/hbm-like/seed1": "14904e0d771557cbd63e53f23000eee92671427078aa024de0943df5f4c993bd",
    "hbm/hbm-like/seed2": "de405f6e5e91a81f9c8960e0405777225f422ba31760c81d9445caadd287c3a2",
    "hbm/hbm-like/seed3": "7efa8f19beb1d6691ca92118e5582f586e2be7e211d351c357ae76f7b12b9537",
    "hbm/metrics": "1238f9bab02cbed55039c3161b9e0fe339efc874a22c35356bec5a5e377c4bc3",
    "hbm/narrow/seed0": "f30fdcc480e697ee3b2e2d6cb56849af724acc66fe08b1e7bc02c17049f8aa53",
    "hbm/narrow/seed1": "f9da9821c05a03d5b05db01682baac8055f500b23dce3d19e2dd5365b6deeeca",
    "hbm/narrow/seed2": "02fd3c9e79d4600eb5715d51e31a17e406f24216e73b0efee879f61d6b8cc781",
    "hbm/narrow/seed3": "b2c1cd167a93fb121168f425c34a3e420fc89f2737835f5b36c800ef92047118",
    "hbm/wide/seed0": "5d67da5a67c73d0fd8f53663971ddc57a75aadf83e3a9936d5d9e581c1d6efb4",
    "hbm/wide/seed1": "e3d4068b60611f4c3286dd7288cc87a1ec8766b91701058a4b2122d71f1b144c",
    "hbm/wide/seed2": "cb0c5f6875bb52765ab1ae63f95d6a0e15d3b48c28e64a01ee32e395d3683833",
    "hbm/wide/seed3": "dbec4f3008b0e368768d917947dc3fc536f77da45e00372c099c7383f8ec72fe",
    "pe/spmm/lanes1/lane0": "e2ec4b508df3c7207812bbdbfa7f90c081fb20ad669a2dd6feddadd85cf4a563",
    "pe/spmm/lanes1/lane0/trace": "2bc17b48614f9c6ce45aa4ee4159e5b57f10f527a234329168e7e4e855a03333",
    "pe/spmm/lanes4/lane0": "85b83ff4d07b7758a550c1fc4314c1157bcfcc04b6be9f6c85513e9ed39947f1",
    "pe/spmm/lanes4/lane0/trace": "47c4399ab6a33523ce1ff547dee8889371cd731dfa7082caf20dd2d8d8571e56",
    "pe/spmm/lanes4/lane1": "8e4c5192ab60a79b93287cdc60a45ba173cc5e3fb7d8f1b33bc35f0dd33999f7",
    "pe/spmm/lanes4/lane1/trace": "59f82bba29b92ad3c14f772a2d7f8d461c32bd0800f7faaf43c2edf1c5e21c8f",
    "pe/spmm/lanes4/lane2": "881accb103ddfaee40df1bfae097efbe038b33ecf6665c710eb5c6c10033bd26",
    "pe/spmm/lanes4/lane2/trace": "c6573054b8e14cadd866313f9c0389220b89abb287a74792cc5bf1c6ef5c1212",
    "pe/spmm/lanes4/lane3": "36345746fe444be914c5b8ee53a5341c05dc03b10c809aefbc6805683c383f0a",
    "pe/spmm/lanes4/lane3/trace": "21232d5b785e1577aba6c882c91ef5e45bd974f588799873501c0413c9822449",
    "pe/spmm/lanes8/lane0": "5534140705548336734724fefce6c63bc99d7aee1acde9c716d35645bf933693",
    "pe/spmm/lanes8/lane0/trace": "63d2c078cde486518f89e9b08fd56bfb03ac613445c521f022f4de00c0f77c4f",
    "pe/spmm/lanes8/lane1": "e8e207f23b3295c4377042afcbab7ceb8dd4f6292c8aea54bd43b0e975469985",
    "pe/spmm/lanes8/lane1/trace": "e39a5645fd4ca673c3f948d601d0f274775219d382b5c7b60711c991ec95edaf",
    "pe/spmm/lanes8/lane2": "ae0c94d23eae26c1b5ab381fe6e39bba17f34f05dde0d2ece0433250677078a3",
    "pe/spmm/lanes8/lane2/trace": "021f007fb25d17fa3461ce4513aca556d1391eaf788f3c43a50563c80c3a9baf",
    "pe/spmm/lanes8/lane3": "079c8ca341fd12f127418382af9319d4185076dc27c5e59828b0746f96a5f3da",
    "pe/spmm/lanes8/lane3/trace": "1b72867fdd62a2ff28d7a7688e7806925210e647cb519e8a7fa610c8254bbd4b",
    "pe/spmm/lanes8/lane4": "1427e33e84def7bda8131f3478c1f1d6c88c863e3d0bc9515b46f497cc854eb6",
    "pe/spmm/lanes8/lane4/trace": "2e9a4182c80c44f1a5378af79816033710c7845c5e8cecdd7edfb09c0ec3f714",
    "pe/spmm/lanes8/lane5": "f5702707162e852206c6627496c049dfc16fad2ca91cc50bb2229e7084e83006",
    "pe/spmm/lanes8/lane5/trace": "ad248a42ecfdff248132e747ce3a9029d056cec63b6b67aa90352a6969874a29",
    "pe/spmm/lanes8/lane6": "6537c999000f2f047a24cdcfcbd0a8fc455f05710347da5eba282ba96f268d26",
    "pe/spmm/lanes8/lane6/trace": "4e0a616496086c3318887ee5d3a5dc02c5e36e0a7387e2861e386487b7407915",
    "pe/spmm/lanes8/lane7": "a2b0fd78f0914e57a88a53222ac59ddcfb0465ff1fe62128a82829f055ea9b0d",
    "pe/spmm/lanes8/lane7/trace": "b559b82857ee0d99ca052aa0ac72a889b6c83e8267ae97d34efadeca7cc223e1",
    "pe/spmttkrp/lanes1/seed0/lane0": "a1ec02dda620e8564a7d3c1cdd9bddc9828b208478ab2bc4c8ab3ac3de05a084",
    "pe/spmttkrp/lanes1/seed0/lane0/trace": "03daac5d9d6fae02cb1580a867d8bc9901d8f8a8d0eb810885e98dcdf0130bf1",
    "pe/spmttkrp/lanes1/seed5/lane0": "7ff04d4d7598f1f3551966d73d23c1f7029f830bac515f2a0cc0d7a8a22506e2",
    "pe/spmttkrp/lanes1/seed5/lane0/trace": "e88dc3b3fbf22d552fea364ee4523eb0faecbe6046ba4c576ff56afdf02f5c7b",
    "pe/spmttkrp/lanes3/seed0/lane0": "101561c59be18437fc0060d55caafc0e9088aa17420583a8d77db70b657976c7",
    "pe/spmttkrp/lanes3/seed0/lane0/trace": "93ab56c9dc11f6e768d98f8d3ff54cb6e51822ee14993146d51d87dd0a1db6ae",
    "pe/spmttkrp/lanes3/seed0/lane1": "ad4c76bda786a94dab4ed77055a50bcd0dadf28169755715be471b945d8a14c1",
    "pe/spmttkrp/lanes3/seed0/lane1/trace": "29c89337dd7ddb4cffa11384eabace05eabab64733b25d913d4328061c5dc5aa",
    "pe/spmttkrp/lanes3/seed0/lane2": "8fa7a3500812b986eec09ee21e841668acefcd8a5e4afc0d294f22e1d728ca36",
    "pe/spmttkrp/lanes3/seed0/lane2/trace": "7cd5a5966d7b97b606d2a78fab74206e25ba328c6ebf1237573d2fec356c6958",
    "pe/spmttkrp/lanes3/seed5/lane0": "7538ea53b1094afca4bc9ca73c1dbebd4f34dedcf47f6bea3ea15a5fff568915",
    "pe/spmttkrp/lanes3/seed5/lane0/trace": "ff856f465a9611dd38bffc482ba4cf446b0eca35fe209f7c08177b4eac30db3e",
    "pe/spmttkrp/lanes3/seed5/lane1": "b92a4bb100e53f40f7180aa5c03ca8190e1d5ffd75c4db69d89f27ac8b4c2cb0",
    "pe/spmttkrp/lanes3/seed5/lane1/trace": "fe3a6fa2ff002e86be9d947a50697356dfb1477f6083f6077af1286228ccdade",
    "pe/spmttkrp/lanes3/seed5/lane2": "b530c883de18e5e34ff8da874be7f6c8c0764ee3b35698fc583095e13c6ec1cd",
    "pe/spmttkrp/lanes3/seed5/lane2/trace": "a793cb7c5c42dd163ec2e451028e20207a5981535b05844efc3c1db4e61d86f9",
    "pe/spmttkrp/lanes8/seed0/lane0": "25082c671e833fd8aa44b3c3e572abaaa3d00eadef446fb5d16be81a202e65fc",
    "pe/spmttkrp/lanes8/seed0/lane0/trace": "48b91d77dce8eeedff0113806889c321863076f51381da0aab3d080a7760286d",
    "pe/spmttkrp/lanes8/seed0/lane1": "dee23858f5d2588719aebcb2658642fd57d2b0f5705f2440b08aa6632cab0322",
    "pe/spmttkrp/lanes8/seed0/lane1/trace": "8c109362c643f1f37435f534cd933e727d99fbb45c07f98c3bc4724d57a7a3c9",
    "pe/spmttkrp/lanes8/seed0/lane2": "49caf08cfa6004e8c09f23c4244c973b27080c4d646ea9d5d58d5679148d50b4",
    "pe/spmttkrp/lanes8/seed0/lane2/trace": "d4368564e46939b42bbb436905919a28f8382a282f22813ce4504dad7f90320f",
    "pe/spmttkrp/lanes8/seed0/lane3": "9500d7e066243cb85a61900a79091218325a52124083720c0f9ba7a42bb424e4",
    "pe/spmttkrp/lanes8/seed0/lane3/trace": "75645c3b87470646136d2530ec5a479836fa5d9efee6ecfa63fdc4484bd1fcdd",
    "pe/spmttkrp/lanes8/seed0/lane4": "11babe0892a40cc0963430b468cc9036e516e616c3ffbfc8fa35e21dd25c499c",
    "pe/spmttkrp/lanes8/seed0/lane4/trace": "fc12ed843c6ca393a1c2bedc1d16a5b24d9dfcf7904aadad8891f00f0643242d",
    "pe/spmttkrp/lanes8/seed0/lane5": "d184c96a92a88f4ea1ea9640c40022363da9e9607e2e9de3b57de3273249c66c",
    "pe/spmttkrp/lanes8/seed0/lane5/trace": "19bde424d61f5a9c97774c85f9c5c008f29a78fa8e89d0b24b54112ce52079f8",
    "pe/spmttkrp/lanes8/seed0/lane6": "fcc61a65621d71701a12bdd43d348337b30fc9eb4b99f7d9a147706d8db17539",
    "pe/spmttkrp/lanes8/seed0/lane6/trace": "fbdecce84b1c19105d201f6049c3a201e61ddc2ef28baf5ba37444e80b2e8f17",
    "pe/spmttkrp/lanes8/seed0/lane7": "6c8f4be6bd22934723aa6f05c1f7573aecdfe543f689debf5e8c8b1d214a3a4c",
    "pe/spmttkrp/lanes8/seed0/lane7/trace": "f97fca8935cab9d2437b19c08ee28b762390100eb6a0b6d761731525968f93eb",
    "pe/spmttkrp/lanes8/seed5/lane0": "f8dd8764a3c73b8f36b6c1e5298b8d500b1217e44ced410f947f388e84f0456f",
    "pe/spmttkrp/lanes8/seed5/lane0/trace": "2ca4049c05d7a56dbbba85ba688f1fbd8d65addbfe5809d284b107706367e18e",
    "pe/spmttkrp/lanes8/seed5/lane1": "f0f86defd08d4cfaa836c61ad69fffcda63a85460ba76855d41b0d05e8d435af",
    "pe/spmttkrp/lanes8/seed5/lane1/trace": "1f99a8dece0a4ec06c3df22b0a8256ea7e3a755294d21792699032e57c50ab3b",
    "pe/spmttkrp/lanes8/seed5/lane2": "2f59cacb5f84fd3d5bf3da478548f899d84873e5fe678f0b6a016831ce61e486",
    "pe/spmttkrp/lanes8/seed5/lane2/trace": "959329c5329ce6b053e7a80b540ddbcbd989d939dc901c6729e0acbec7aad794",
    "pe/spmttkrp/lanes8/seed5/lane3": "b8200e4d0267ad5b658c6c6a1826664f23ed29318b25e78a6dad5b9b85d8c4ef",
    "pe/spmttkrp/lanes8/seed5/lane3/trace": "3297a99895cb8acf3a6b3da49408575a117a471ce22e8a7f13696d73e1be2be4",
    "pe/spmttkrp/lanes8/seed5/lane4": "7ba81fba06b2b999dfa97db9de1a6e91299496506ebcf21191977a3e437ce694",
    "pe/spmttkrp/lanes8/seed5/lane4/trace": "1d6cff88b413c1baf7ab2a50a9bad3558df9ac6b9754a01fc24a6bb004918551",
    "pe/spmttkrp/lanes8/seed5/lane5": "ee3e1e605b8246d9eca78d2332272e1ac55c830d9189eb7068cf294b59f4a378",
    "pe/spmttkrp/lanes8/seed5/lane5/trace": "c08a5aa3272fc1395f22084d540398c9ba9a64b949e7f0b2e0d19811189ec942",
    "pe/spmttkrp/lanes8/seed5/lane6": "60b679bbfc45a30ee83c4744eee0339ce22d20a47d9a69348214926fed1e9cb9",
    "pe/spmttkrp/lanes8/seed5/lane6/trace": "6f9870a07ecd997785eae0035d0b7a0c089bb495a219933bb5f3ce2bbd6943c8",
    "pe/spmttkrp/lanes8/seed5/lane7": "60172d86fea824b403e7826accb42e8a2136c499cdd2893017790c5e79a6a54c",
    "pe/spmttkrp/lanes8/seed5/lane7/trace": "dd0281b891bb9574fd3008c6d7b320828e2494ff6f76c1390f1cd366644ed781",
    "pe/spmv/lanes1/lane0": "76d554b00e16ab8692ac1581bb2c0174578877b9e372c1e4c21f8277bd42887e",
    "pe/spmv/lanes1/lane0/trace": "def2724ef4db551474aa0041549ce8539e4b3ce888f740e86942272b9eb3e386",
    "pe/spmv/lanes4/lane0": "8abdc5c5005c99a333b1ce0b98be65e4940d5653140f8bc05c8aee8069ed4419",
    "pe/spmv/lanes4/lane0/trace": "50a6061e573c9ed48d2a65256b6ab4c309bbc601fa2e6a8eab2ba9b3fa418163",
    "pe/spmv/lanes4/lane1": "07a3af93a89c4556efc41c82a5cfaef2fabe28ce38cdabced72b3acfcadd6722",
    "pe/spmv/lanes4/lane1/trace": "cc1e9fde89a0de4eb7ef9951896425b9b55ce0aee652c0b45ddb0a93b151bfcf",
    "pe/spmv/lanes4/lane2": "e67c3afb742cb8b771c52df5700a0e7e9965b683a8f2c18ec360d328857f0884",
    "pe/spmv/lanes4/lane2/trace": "0bd5654a752ddae1b340771950096e7d55ef17a33db2772d34a3aa8afbfb6d6c",
    "pe/spmv/lanes4/lane3": "d1b30c323aa60f9e724dfd9c30c36ece9ce4969448fb15942f4db8a4be03f225",
    "pe/spmv/lanes4/lane3/trace": "f1c2c9fb69da52e3f7583bf6c129899c666bcc13ff55ad0b095d01190753c361",
    "pe/spmv/lanes8/lane0": "98bbd4443894765d89045d164cc1a753f42edf4de8851ba5c814a3e057b8b83a",
    "pe/spmv/lanes8/lane0/trace": "4d6164c9ff3eacc36090e027c822934af484f02e4d227f944c774d34d880460e",
    "pe/spmv/lanes8/lane1": "ece93e9f6de9f77b43d5031e0aca8833c13a03f79eae0dbb1b0b6cf30eb35419",
    "pe/spmv/lanes8/lane1/trace": "aeb95e519b14de564fb2c545dd3b18b9262dd23750b41b9229b81fad14db0a92",
    "pe/spmv/lanes8/lane2": "5e24506fa37d6ce97d7ca3cc12cd06872e1c2b39eb9480689ef717d1ce38b4ad",
    "pe/spmv/lanes8/lane2/trace": "2d7e7c4f5616ffccd12770c5bf1711bf75a3ddadb3c2998d5a34879ffcf380d0",
    "pe/spmv/lanes8/lane3": "b50c4f562d2ab947c418f67a9ced80a882920600dd7513c3dda5c89de55cd05e",
    "pe/spmv/lanes8/lane3/trace": "46a711ea9c0b6086a29f2249265b6cd2eb65ab3335509714a6f367058b5e6360",
    "pe/spmv/lanes8/lane4": "169cb2910fd009f91ec9d2779fbbe55114b2c5d90551bd18c90aa6fa12b88926",
    "pe/spmv/lanes8/lane4/trace": "ff4c8b59559b99ecd9a9f9aa5250c97223f93569c09705c2327be4b54b3da052",
    "pe/spmv/lanes8/lane5": "ad11daf1b636c64f073548bb4bb2329a35764aa67914989101841fabcf1753ee",
    "pe/spmv/lanes8/lane5/trace": "b3d6177d01ba0f784a5d3995b35bcad4023b84a62af4aa6850c5dfdc010014e3",
    "pe/spmv/lanes8/lane6": "5abe8722f57297578bd0dd0eb48887c09dcd079549fff3078eaa7e2a3cff1fe7",
    "pe/spmv/lanes8/lane6/trace": "86455694c2b9b6a75d5adea93a3054c3791e8711db4abb25920a323a643df052",
    "pe/spmv/lanes8/lane7": "16f9e7a600a477529eaf57e7e24ad21359d5e931c282374837cb184efe437ebf",
    "pe/spmv/lanes8/lane7/trace": "fda37c42be1c7b9732763724e6582d5509b4784a58c9a579c7486e7a255a56e3",
    "pe/spttmc/lanes1/seed0/lane0": "9bc8a9ca833dfcc687a1b29164ecc2ab436ef8fd4a151d05f7eb5105348c23d7",
    "pe/spttmc/lanes1/seed0/lane0/trace": "94df5e9ebeb6331ba96b58bd43ce3fdae2ef6a9b4894c0d1eab31e113d367676",
    "pe/spttmc/lanes1/seed5/lane0": "46fc82a654b239f3e06f767a00d4f1df2d839ca91af62295e9a048b7a93dd81e",
    "pe/spttmc/lanes1/seed5/lane0/trace": "ed176d4117d42948e5429b1dc51fdd9e69d4874b7fa99e583881bcdfc2dc5fa5",
    "pe/spttmc/lanes3/seed0/lane0": "c82c034a8be13ac1cdbfeb38f68a787d5b85972a2ae8c80e0033244c57456b99",
    "pe/spttmc/lanes3/seed0/lane0/trace": "2dc950db158e020b03dc2cafb514f0b67d3b7c3a85ff37ed835c61fb8cfe590b",
    "pe/spttmc/lanes3/seed0/lane1": "da48aacb2477f4219e050085226e3988206d43cdc07c3fa8f4dd3e5402734aaa",
    "pe/spttmc/lanes3/seed0/lane1/trace": "a642ad878d174e7d04b82e3ba0e61a578102795d150a081b62f0718e07d322c5",
    "pe/spttmc/lanes3/seed0/lane2": "ea0c21dca577bbc2d867d9cbc2894b1fd3ee9cc7344565c258a8767e16b33376",
    "pe/spttmc/lanes3/seed0/lane2/trace": "7363e6de20b1128416e9b75739450b28fb535e21c0a09bede1a2b46c272adcae",
    "pe/spttmc/lanes3/seed5/lane0": "e13654fc53131424be0720460b1287f6c329dde527221314096ebbdcb19e6b72",
    "pe/spttmc/lanes3/seed5/lane0/trace": "9f9add2636513e84390b5960a8f915173aee4f3830cbb5cda7dcc57b8f4bf627",
    "pe/spttmc/lanes3/seed5/lane1": "ac0d156a4a657da55b3fb412a2048bb094128df34c0b35af3aa0867c2292b706",
    "pe/spttmc/lanes3/seed5/lane1/trace": "0964c17e46730dea5a5cb8cbcf5033178e8d91f6704f69fe481172eaa37a54fb",
    "pe/spttmc/lanes3/seed5/lane2": "70bc66d7bb3cd3fd273fe21a65165669cf7c36a7661640905e02cc27a46aa391",
    "pe/spttmc/lanes3/seed5/lane2/trace": "3da9f701b1160e8e41690ea08f074cf6900111cd55e27685059a6bb8eb7e4297",
    "pe/spttmc/lanes8/seed0/lane0": "cc27d5a7cd652b7928ad04b958b102f041c2b14d973819f1b519f62f63f4d081",
    "pe/spttmc/lanes8/seed0/lane0/trace": "8511408bc55d6a7dd140576b1a6f9bfb64c9cbf192727d09a5706ef14e2c9c79",
    "pe/spttmc/lanes8/seed0/lane1": "fa4cf336df7463c313d614dcfd57169b1d1cbcebea9d7b4dd0853b4f2c5e0e9b",
    "pe/spttmc/lanes8/seed0/lane1/trace": "ad69cbaf9595ac484123d6e5c2838c9c3261599ca7c19548bc08edbd9f19759f",
    "pe/spttmc/lanes8/seed0/lane2": "b64bde14466c2e3437652d989def0b1fe52a2a646a48af9bc4d8826a43399644",
    "pe/spttmc/lanes8/seed0/lane2/trace": "82066122b62cc63a2156b2995e976eb112ff780f26ed2fdc9fa5fd6ec0c639ed",
    "pe/spttmc/lanes8/seed0/lane3": "5b7c0b0fbfdcf8a8c0f3f5c0792d93a23f745c6737b6f732a6aff6c3a96e65ab",
    "pe/spttmc/lanes8/seed0/lane3/trace": "4180a4464886b83a6b2dc655a96b83b3178f99d4b5683ebd3ed01913a0705ce6",
    "pe/spttmc/lanes8/seed0/lane4": "290e844f55b692bcc4a14ef40e0033c8ec140e16fcaf83c7ad58aa1dfea57f0f",
    "pe/spttmc/lanes8/seed0/lane4/trace": "0b35407829f334155e013ce43f63936455c2e922d8a7996e6031e794457e67b2",
    "pe/spttmc/lanes8/seed0/lane5": "fd53f2bde5133743564b59e498d20af1360358038a31a4dda04b173bd979520f",
    "pe/spttmc/lanes8/seed0/lane5/trace": "c071e9bbd5eadc53fa786e4446e095312aeef286844e32d657ed5008270eced1",
    "pe/spttmc/lanes8/seed0/lane6": "9fc2f1e735af11a75e14c510132cec0168ff021fe63deda0964ba79697306cb1",
    "pe/spttmc/lanes8/seed0/lane6/trace": "1b2b111533d94c043d723023bcc4ad5e7e9ed4aa47eedbe7983fa004d83702e7",
    "pe/spttmc/lanes8/seed0/lane7": "6dc155bae4d176d40c81342c5581e159daf667e610775330eb63484534eb5e4a",
    "pe/spttmc/lanes8/seed0/lane7/trace": "046b85d34ae043cca0047eca76a481d6ac139eb8a9d80a6bc3cc63f32a8dba6b",
    "pe/spttmc/lanes8/seed5/lane0": "aa746ba6a6a10988b503e417daabbb48f6905ce1805395a2882fc9dbed3f28d3",
    "pe/spttmc/lanes8/seed5/lane0/trace": "4e872765d62043dcc649d1ba8d4a6a8f4471c516eb2be219a1982748ffb2221c",
    "pe/spttmc/lanes8/seed5/lane1": "8af369f9e822e4f03e779b3602c8d251289646191ceb42976f7d8d66a7f2ca4b",
    "pe/spttmc/lanes8/seed5/lane1/trace": "603940c7ccf3a04d8e65196ce9d6ecd96124556ba3e6b399e39535823f8b8183",
    "pe/spttmc/lanes8/seed5/lane2": "c09880b8d615276c25beea756d86c78c961fb17cfcf21df392649fdb1c1bec86",
    "pe/spttmc/lanes8/seed5/lane2/trace": "65d78a4aab5b6e9110382487b81445f0f48c864324b0b4c6651676d99e573565",
    "pe/spttmc/lanes8/seed5/lane3": "9abc378c25b725b466d1fc9db3dd996f07097fbe28c14cd012679f0e5eb960db",
    "pe/spttmc/lanes8/seed5/lane3/trace": "2da3c22003a413ff92d90818b7b4ce1c94e7c530a7b731377483daf4ac7dd39f",
    "pe/spttmc/lanes8/seed5/lane4": "00476bf8b032551f9fedea44b3aa115d4e7d65798eacfadb48c3251bf1a233e5",
    "pe/spttmc/lanes8/seed5/lane4/trace": "9a1a956ee41c8cfe2684df6afa608b53773d1a16f2daa193b36cff5fe11425d0",
    "pe/spttmc/lanes8/seed5/lane5": "d6074dcbd923869f2f00563cdef927fb82d9cd64a14d67d6b8653d9b3007ba8f",
    "pe/spttmc/lanes8/seed5/lane5/trace": "f6cd7f85f3140f83d7fca446d2b212b758ba56ab93e8fd1b5a1af331a2f43279",
    "pe/spttmc/lanes8/seed5/lane6": "a40f4946321617a3d5d493e9bbdeae80265fd8be9e522e4195821a196393c5f6",
    "pe/spttmc/lanes8/seed5/lane6/trace": "9f0b11b4f40c0086b71a27f71bf328f1cc43b03cdbe7578f176f1b0c4e3c677b",
    "pe/spttmc/lanes8/seed5/lane7": "c6d8a20ebd4dc761b73454a02901f1cfb72fb0cedeeb47473da02f9c0f2c947c",
    "pe/spttmc/lanes8/seed5/lane7/trace": "2b382a51dc471f20de9f11bed29eee3025ee83a455e1b99237cb4d7afa714126",
}


def check(case, got):
    assert got == SIM_GOLDEN[case], f"{case}: digest moved"


def observed(micro):
    """A micro-mode observation for the micro leg, none for the plain one."""
    return obs.observe(micro=True) if micro else contextlib.nullcontext()


def event_digest(res):
    return digest(
        (
            int(res.cycles), int(res.ops), int(res.bank_conflict_stalls),
            int(res.msu_stalls), int(res.tlu_stall_cycles),
            int(res.injected_stall_cycles),
        ),
        [
            (e.kind, tuple(e.location), e.detected, e.info)
            for e in res.fault_events
        ],
        np.asarray(res.lane_busy_cycles),
        res.output,
    )


def lane_digest(res, out, trace=None):
    fields = (
        int(res.cycles), int(res.ops), int(res.nnz_records),
        int(res.headers), int(res.fibers), int(res.drains),
    )
    if trace is None:
        return digest(fields, out)
    events = [(int(c), str(e), int(d)) for c, e, d in trace]
    return digest(fields, out, events)


def memory_digest(res):
    return digest(
        (int(res.cycles), int(res.useful_bytes), int(res.fetched_bytes))
    )


def snapshot_digest(snapshot):
    return digest(json.dumps(snapshot, sort_keys=True))


def _cfg(lanes, banks=8):
    return TensaurusConfig(rows=lanes, spm_banks=banks)


def _tensor_workload(seed, lanes, kernel):
    rng = np.random.default_rng(seed + 100)
    t = random_tensor(shape=(30, 20, 16), density=0.03, seed=seed)
    ciss = CISSTensor.from_sparse(t, lanes)
    costs = kernel_costs(kernel, _cfg(lanes), fiber_elems=16, f1_tile=4)
    f0 = rng.standard_normal((16, RANK))
    if kernel == "spmttkrp":
        f1 = rng.standard_normal((20, RANK))
        out_shape = (30, RANK)
    else:  # spttmc
        f1 = rng.standard_normal((20, 6))
        out_shape = (30, 4, RANK)
    return ciss, costs, f0, f1, out_shape


def _matrix_workload(lanes, kernel):
    rng = np.random.default_rng(7)
    dense = (rng.random((40, 32)) < 0.05) * rng.standard_normal((40, 32))
    ciss = CISSMatrix.from_coo(COOMatrix.from_dense(dense), lanes)
    costs = kernel_costs(kernel, _cfg(lanes), fiber_elems=16)
    if kernel == "spmm":
        f0 = rng.standard_normal((32, RANK))
        out_shape = (40, RANK)
    else:  # spmv
        f0 = rng.standard_normal(32)
        out_shape = (40,)
    return ciss, costs, f0, out_shape


class TestEventEngineAgreement:
    @pytest.mark.parametrize("micro", MICRO)
    @pytest.mark.parametrize("kernel", ["spmttkrp", "spttmc"])
    @pytest.mark.parametrize("lanes", [1, 3, 8])
    def test_tensor_kernels(self, lanes, kernel, micro):
        for seed in (0, 1):
            for qd in (1, 4):
                ciss, costs, f0, f1, out_shape = _tensor_workload(
                    seed, lanes, kernel
                )
                with observed(micro):
                    got = EventDrivenTensaurus(
                        _cfg(lanes), costs, f0, f1, 4, queue_depth=qd
                    ).run(ciss, out_shape)
                check(
                    f"event/{kernel}/lanes{lanes}/seed{seed}/qd{qd}",
                    event_digest(got),
                )

    @pytest.mark.parametrize("micro", MICRO)
    @pytest.mark.parametrize("kernel", ["spmm", "spmv"])
    @pytest.mark.parametrize("lanes", [1, 4, 8])
    def test_matrix_kernels(self, lanes, kernel, micro):
        ciss, costs, f0, out_shape = _matrix_workload(lanes, kernel)
        with observed(micro):
            got = EventDrivenTensaurus(_cfg(lanes), costs, f0).run(
                ciss, out_shape
            )
        check(f"event/{kernel}/lanes{lanes}", event_digest(got))

    @pytest.mark.parametrize("micro", MICRO)
    @pytest.mark.parametrize(
        "rate,each", [(0.15, 9), (0.6, 25), (1.0, 3)]
    )
    def test_fault_injection(self, rate, each, micro):
        ciss, costs, f0, f1, out_shape = _tensor_workload(2, 4, "spmttkrp")
        plan = FaultPlan(seed=1, hbm_stall_rate=rate, hbm_stall_cycles=each)
        with observed(micro):
            got = EventDrivenTensaurus(
                _cfg(4), costs, f0, f1, 4, fault_plan=plan
            ).run(ciss, out_shape)
        check(f"event/hbm-stall/rate{rate}/each{each}", event_digest(got))

    def test_eight_lane_tile(self):
        ciss, costs, f0, f1, out_shape = _tensor_workload(3, 8, "spmttkrp")
        got = EventDrivenTensaurus(_cfg(8), costs, f0, f1, 4).run(
            ciss, out_shape
        )
        check("event/spmttkrp/lanes8/seed3", event_digest(got))

    @pytest.mark.parametrize("micro", MICRO)
    def test_obs_metrics_identical_across_engines(self, micro):
        ciss, costs, f0, f1, out_shape = _tensor_workload(1, 8, "spmttkrp")
        with obs.observe(micro=micro) as ob:
            EventDrivenTensaurus(_cfg(8), costs, f0, f1, 4).run(
                ciss, out_shape
            )
            snap = ob.registry.snapshot()
        check("event/metrics", snapshot_digest(snap))

    def test_benchmark_scale_tile(self):
        # The default 8x8 PE array on a 20k-nonzero tile: long enough
        # streams that every stall cause shows.
        cfg = TensaurusConfig()
        rng = make_rng(32)
        tensor = random_sparse_tensor((400, 120, 100), 20_000, skew=0.8, seed=5)
        b = rng.random((120, 16))
        c = rng.random((100, 16))
        ciss = CISSTensor.from_sparse(tensor, cfg.rows)
        costs = kernel_costs("spmttkrp", cfg, fiber_elems=16)
        got = EventDrivenTensaurus(cfg, costs, fiber0=c, fiber1=b).run(
            ciss, (400, 16)
        )
        check("event/benchmark-scale", event_digest(got))


def _check_lanes(prefix, ciss, out_shape, make_lane, micro):
    """Every lane: its result and output, then the same run traced."""
    for lane in range(ciss.num_lanes):
        case = f"{prefix}/lane{lane}"
        with observed(micro):
            out = np.zeros(out_shape)
            res = make_lane().run_stream(ciss, lane, out)
            check(case, lane_digest(res, out))
            trace = []
            out = np.zeros(out_shape)
            res = make_lane().run_stream(ciss, lane, out, trace=trace)
            check(case + "/trace", lane_digest(res, out, trace))


class TestPELaneAgreement:
    @pytest.mark.parametrize("micro", MICRO)
    @pytest.mark.parametrize("kernel", ["spmttkrp", "spttmc"])
    @pytest.mark.parametrize("lanes", [1, 3, 8])
    def test_tensor_kernels(self, lanes, kernel, micro):
        for seed in (0, 5):
            ciss, costs, f0, f1, out_shape = _tensor_workload(
                seed, lanes, kernel
            )
            _check_lanes(
                f"pe/{kernel}/lanes{lanes}/seed{seed}", ciss, out_shape,
                lambda: PELane(costs, f0, f1, 4), micro,
            )

    @pytest.mark.parametrize("micro", MICRO)
    @pytest.mark.parametrize("kernel", ["spmm", "spmv"])
    def test_matrix_kernels(self, kernel, micro):
        for lanes in (1, 4, 8):
            ciss, costs, f0, out_shape = _matrix_workload(lanes, kernel)
            _check_lanes(
                f"pe/{kernel}/lanes{lanes}", ciss, out_shape,
                lambda: PELane(costs, f0), micro,
            )


def _random_trace(seed, groups, max_per_group, addr_span, sizes):
    rng = np.random.default_rng(seed)
    trace = []
    for _ in range(groups):
        n = int(rng.integers(0, max_per_group + 1))
        trace.append(
            [
                (int(rng.integers(0, addr_span)), int(rng.choice(sizes)))
                for _ in range(n)
            ]
        )
    return trace


class TestStreamMemoryAgreement:
    CONFIGS = [
        MemoryConfig(
            name="hbm-like", peak_gbs=128.0, latency_ns=60.0,
            max_outstanding=48, burst_bytes=64, clock_ghz=1.0,
        ),
        MemoryConfig(
            name="narrow", peak_gbs=16.0, latency_ns=45.0,
            max_outstanding=4, burst_bytes=32, clock_ghz=1.2,
        ),
        MemoryConfig(
            name="wide", peak_gbs=256.0, latency_ns=10.0,
            max_outstanding=64, burst_bytes=128, clock_ghz=2.0,
        ),
    ]

    @pytest.mark.parametrize("micro", MICRO)
    @pytest.mark.parametrize("cfg_i", range(len(CONFIGS)))
    def test_random_traces(self, cfg_i, micro):
        cfg = self.CONFIGS[cfg_i]
        for seed in range(4):
            trace = _random_trace(
                seed, groups=60, max_per_group=6,
                addr_span=1 << 14, sizes=(4, 12, 64, 200),
            )
            with observed(micro):
                got = StreamMemory(cfg).service_trace(trace)
            check(f"hbm/{cfg.name}/seed{seed}", memory_digest(got))

    @pytest.mark.parametrize("micro", MICRO)
    def test_empty_and_degenerate(self, micro):
        cfg = self.CONFIGS[0]
        for i, trace in enumerate(([], [[]], [[], []], [[(0, 1)]])):
            with observed(micro):
                got = StreamMemory(cfg).service_trace(trace)
            check(f"hbm/degenerate{i}", memory_digest(got))

    @pytest.mark.parametrize("micro", MICRO)
    def test_metrics_identical(self, micro):
        cfg = self.CONFIGS[1]
        trace = _random_trace(
            9, groups=40, max_per_group=4, addr_span=1 << 12, sizes=(8, 64)
        )
        with obs.observe(micro=micro) as ob:
            StreamMemory(cfg).service_trace(trace)
            snap = ob.registry.snapshot()
        check("hbm/metrics", snapshot_digest(snap))
