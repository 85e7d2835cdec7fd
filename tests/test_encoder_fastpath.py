"""Golden digests of the format encoders.

CISS (tensor and matrix), CISS-ND, CSF and HiCOO each kept a reference
builder beside the vectorized one. ``ENCODER_GOLDEN`` holds sha256
digests computed from those reference builders (and from the reference
least-loaded scheduler, for :func:`least_loaded_deal`'s lanes and
offsets) on the fixed inputs below before they were deleted; a match
proves the one remaining builder reproduces them byte for byte, across
densities, shapes, lane counts, modes and block sizes. A 1-d
:class:`CSFTensor` is pinned too. A mismatch names its case; never
re-baseline a digest to make a change pass.

The file also covers the deal as an ablation seam, the stream-view
memos and the SF3 array layout's byte-identity.
"""

import itertools

import numpy as np
import pytest

from repro.datasets.generators import (
    graph_matrix,
    random_sparse_tensor,
    random_sparse_tensor_nd,
    uniform_matrix,
)
from repro.formats import ciss as ciss_mod
from repro.formats.ciss import (
    KIND_HEADER,
    CISSMatrix,
    CISSTensor,
    least_loaded_deal,
)
from repro.formats.ciss_nd import CISSTensorND
from repro.formats.coo import COOMatrix
from repro.formats.csf import CSFTensor
from repro.formats.csr import CSRMatrix
from repro.formats.hicoo import HiCOOTensor
from repro.kernels.sf3 import (
    execute_sf3,
    sf3_spec_mttkrp,
    sf3_spec_spmm,
    sf3_spec_spmv,
    sf3_spec_ttmc,
)
from repro.tensor import SparseTensor
from repro.util.errors import ShapeError
from repro.util.rng import make_rng

from .conftest import digest

ENCODER_GOLDEN = {
    "ciss-matrix/empty/lanes1": "a7ba44ba7e704310be079cebfd10c0a43bd0b9e6540ec96292629aa88b1b208c",
    "ciss-matrix/empty/lanes16": "74b3935554d491e37712277fa5685bb3ab7a5df6d5f7aedfc22c16ea27b8f50d",
    "ciss-matrix/empty/lanes8": "40e8f4cfc4b0087adf20eabb0c7433e30e15293d9ffd55f664c914854f2009da",
    "ciss-matrix/graph/lanes1": "12257ae624eee5dcb7909b57d0c140870798dcbb06888fbe770891be97497a78",
    "ciss-matrix/graph/lanes16": "51977c292e7d3850ee4fa4818e327a5454a12c594edaf5806463f10e415588f6",
    "ciss-matrix/graph/lanes8": "e600d2a6995961eda9e3468341133c4e863771de8ce6ad772694469316f6e2aa",
    "ciss-matrix/uniform/lanes1": "c2128ae3dece3174bed2407778fdb36b1039d98accf741fa8cc69e0668f0f683",
    "ciss-matrix/uniform/lanes16": "4510b9d2889d88b1ab75d80934350f1a2cdee560ecf8fbdad1bb8e3e2f5d1148",
    "ciss-matrix/uniform/lanes8": "cf1a4a1a47716e2416f27967bda1e69e814d1ce61449246ba64c7708e798cbab",
    "ciss-nd/2d/mode0/lanes1": "541f290024e9138b2653db703b206bb1735a86e8422992262d148bc03e7f6362",
    "ciss-nd/2d/mode0/lanes8": "47eb74a6cbc375202e86edbbfea80b53bcdbb5eea2b3e547b4fdd568c2cd036e",
    "ciss-nd/2d/mode1/lanes1": "d44028212f0c9185aff37eb7b8e02b542ca4c58a01fa4f4041dc53634932dc68",
    "ciss-nd/2d/mode1/lanes8": "c95720b4127643e3f2b81d9f28ab4d91cb18230f5078866ca91341cd9fd55436",
    "ciss-nd/4d-empty/mode0/lanes1": "895a90394c3211e3c585558b30c1a6e821eb86ea82d23a4c38bd8a2750e1dcce",
    "ciss-nd/4d-empty/mode0/lanes8": "f0edb36934944ae0496de568ea30801a946734c24a37f41212b2b1d3baac0e68",
    "ciss-nd/4d-empty/mode1/lanes1": "029d0aeab5f788b18b11468303b49b145d992c7184bd22c31fe9543e8e76209d",
    "ciss-nd/4d-empty/mode1/lanes8": "f3064f5f79286a6518c776187ccc34aa9405f0bbe60fdf4bd020f22473c75944",
    "ciss-nd/4d-empty/mode2/lanes1": "f8a81ddf042f4ee052ac02837bbb51146ab87682ee4e59847765d0a30c5906aa",
    "ciss-nd/4d-empty/mode2/lanes8": "dedee6bbc460b14f242df3db92cd7e073fef8776098cc309c071243161741e58",
    "ciss-nd/4d-empty/mode3/lanes1": "ef7aa64b9cadb92bea4cfc04cacce060a281f52c12fe3b4de9a4ac90738ba937",
    "ciss-nd/4d-empty/mode3/lanes8": "b65a86a725c3ea534101f0790629e0eb645d3815ab28827b4a04dfaabb06fa06",
    "ciss-nd/4d/mode0/lanes1": "2bcddc2ddc74e031816545e3581cb9a078ab3800bb9eeb8fc4739d4d3dbf9bcb",
    "ciss-nd/4d/mode0/lanes8": "39d076ba0e51f884d928fc249b2e91fb2d4bb1893058771285dec090d8a7ae3f",
    "ciss-nd/4d/mode1/lanes1": "d65fe950761e2374058995d95fdfdd944630c83f93a87cb314ea70b45bbe8215",
    "ciss-nd/4d/mode1/lanes8": "884da37bc7522e80f32a8fe9b9656eb80c7d9bdbc5406498e18381516432e3fc",
    "ciss-nd/4d/mode2/lanes1": "a81025e1c2ac690190fa2214c520f186052c8f2e681bbf5b1e15116113bb47b4",
    "ciss-nd/4d/mode2/lanes8": "2b781116cef44fa3ddd0d3a613a767c4312e16c274940ccd3acd16b58cd4ee68",
    "ciss-nd/4d/mode3/lanes1": "6200199191e840db59e7262372d5e4ccb594eaea9a0a37545d4e7228c85dda41",
    "ciss-nd/4d/mode3/lanes8": "076d0fb26d24aab5e737cf2222a3875728e9a1459c6a47de3d6067abdfdf664c",
    "ciss/empty/mode0/lanes1": "95853c86590c5a264380d1504bbd21ed9457c68808213aef6d7acc022b29cef2",
    "ciss/empty/mode0/lanes16": "ebb2fc303472f8a902492ecd3f062bd2491d1dcdcdbff0ff045ed82b516962a7",
    "ciss/empty/mode0/lanes8": "3bdafeea271c0b05d3096ae02b88b288509f579ef2eebee5d63639ad0709349a",
    "ciss/empty/mode1/lanes1": "95853c86590c5a264380d1504bbd21ed9457c68808213aef6d7acc022b29cef2",
    "ciss/empty/mode1/lanes16": "ebb2fc303472f8a902492ecd3f062bd2491d1dcdcdbff0ff045ed82b516962a7",
    "ciss/empty/mode1/lanes8": "3bdafeea271c0b05d3096ae02b88b288509f579ef2eebee5d63639ad0709349a",
    "ciss/empty/mode2/lanes1": "95853c86590c5a264380d1504bbd21ed9457c68808213aef6d7acc022b29cef2",
    "ciss/empty/mode2/lanes16": "ebb2fc303472f8a902492ecd3f062bd2491d1dcdcdbff0ff045ed82b516962a7",
    "ciss/empty/mode2/lanes8": "3bdafeea271c0b05d3096ae02b88b288509f579ef2eebee5d63639ad0709349a",
    "ciss/skewed/mode0/lanes1": "731bca11286566705cf00110e24ff11c659577981d7c481d0b7e549e30eaa489",
    "ciss/skewed/mode0/lanes16": "5093ada257ee211cc5b15063d9e857bb6435fcb93d601a295d0e7310cc356207",
    "ciss/skewed/mode0/lanes8": "3ef6fd234f9f2a0b42ed3c21e9717565ed2d0acdcdf34571cc365ecac5cc7c3a",
    "ciss/skewed/mode1/lanes1": "5c5d6f8a7106040538a99c1db2001022ca227bfa5062d4a5011ffd8dcdc3d37c",
    "ciss/skewed/mode1/lanes16": "bba01ef1a92a7a4c197a26a330cfe96a0e0191ff09c80dc3be87c5b513ff9de4",
    "ciss/skewed/mode1/lanes8": "1699607e24cd6f9555c80e48fa9d61b53bc7ee8fa73cd36d50832d374f32900a",
    "ciss/skewed/mode2/lanes1": "0881878a52a8aeb2a0c8d52f9d6f3636c65e2eb41414efdcaa70c9311ed6a72f",
    "ciss/skewed/mode2/lanes16": "2fe477bd0d5b1da7dc3e6c44545eb6176f21419128ced4e9f6b4b8b42697c813",
    "ciss/skewed/mode2/lanes8": "070f18a19ab3f2344e266edc729e6810fac67d839f21f216c8bf989ff4b753b7",
    "ciss/tiny/mode0/lanes1": "d837c2299b8e330a24dcceb27225da952dc212d87713c87b0f13d6884c5d8a25",
    "ciss/tiny/mode0/lanes16": "69593ad9d976138df9a2a7be8c92dd3b740e6044a83fc21fb1274bb12a8aa3ab",
    "ciss/tiny/mode0/lanes8": "f0b0ec5b7ea5f90980812b00648d2dd814b4064547d79348422b7018db970b23",
    "ciss/tiny/mode1/lanes1": "25f2fecea685146c5fc20a883e85eddc4a92f3181e97687249510eaf17138a29",
    "ciss/tiny/mode1/lanes16": "60db69658186620dcb2e64195afc6e9a89e7971cee5fa6c89e1c0fa73652e4dd",
    "ciss/tiny/mode1/lanes8": "34c0628c9f9b0199f577d4d1d8a55c67ce297b4a5b0ea9e8d9e2a6f7a062bd1c",
    "ciss/tiny/mode2/lanes1": "0d64c8d223ac9a259e60a520b546a2b8ad3ef80ceff608149dc7c78a533fdb19",
    "ciss/tiny/mode2/lanes16": "71ad920c51c1d005bf254db28bd7c8a611a429a7bb7c03382d87dd8cdb1f546b",
    "ciss/tiny/mode2/lanes8": "4b2b55d08f6cc4ef4e6cd5bd9439cda86599188a5f2552750f793d7f4415a1e3",
    "ciss/uniform/mode0/lanes1": "741d7ecbccc3b78e28db9576dd787445aa8c69d032b201ad99e0b9fb282f20bf",
    "ciss/uniform/mode0/lanes16": "768f801d404b3d2bbf827e7f19f885af0cc7be3ec2074b7a7c030522f8c4a4af",
    "ciss/uniform/mode0/lanes8": "f3abdd7938a28b9ab37252d37b96843fc9368ff0d0135c436cad1b5b98f63b14",
    "ciss/uniform/mode1/lanes1": "ad4b04e8059b4a1746f0bccb11539c9b8129a9926c76b3c8618eb791ff72599e",
    "ciss/uniform/mode1/lanes16": "55a51534989c017e8361465491fd1b1b77e7f67a311f3cbb06103f228a7bbf9a",
    "ciss/uniform/mode1/lanes8": "c2ed271f43225bd9f806ac77081aca4f3f0a95f67611c24963608ce695b12e25",
    "ciss/uniform/mode2/lanes1": "2e24b53cfbd3dfb9a0334d349ca34b477dbba8ea2117dd23a78d9f14b95a9dcf",
    "ciss/uniform/mode2/lanes16": "96b3191addd5520a552cccc2adb6136bf9e1de9d07fabcc9e996ef9c257c2a2d",
    "ciss/uniform/mode2/lanes8": "35a699b9e931f37d25a0632d79c7801dafe480b9ec82a3853f4b12f2b08275cf",
    "csf/1d": "54c62b048c3907b695c14e867c80b6a5c18f5ad5cdcd72e1c0bb80952d664832",
    "csf/1d-empty": "03fe970ff6277e1f281863117d00f88a1b1403024ab2b42953ce1d564ed787b3",
    "csf/2d": "495fbe0c271679702a99214e0ed2927cb71141141aacd85745c710d01fbc0f8c",
    "csf/4d": "b62ee021af9d864c5cd473055897895b29897edca3095cf8fb431ecf1e00793b",
    "csf/4d-empty": "653fcdee0938872a1a7a1a4279528214255d90e6d831e6277bc88064164031e8",
    "csf/empty/order012": "ca8b299706c2e6c2b7e7426499a456451f368cdbd99792afe3732eefbcd37602",
    "csf/empty/order021": "e61e273159b7eecdfebbcb32d1f7b1411667febe5f5162280f94643d45816081",
    "csf/empty/order102": "9fd759a1996313ce0bb33014a38d7727441bd351a79e1687c8ae22756235c573",
    "csf/empty/order120": "5f750c2ba961ba487d5d90a158def9a3f7f35f3c188b7bce293267ad6b88d29b",
    "csf/empty/order201": "0dc550bd0e14f03b74192cbdc078ac6464fb9852b039b99d9070fb6da0ac6035",
    "csf/empty/order210": "dd47bf3aafa2795ffbffd17cb588274b1235b37c7cf25e05bb4c3d4407b15428",
    "csf/skewed/order012": "66da339c783bcadc46ccfe7c65a9695bd9bc8913ac08cd1c6b1b85348849c4a4",
    "csf/skewed/order021": "3b6146209dfd4b9ee095eb362c62226267fdfd6384dcd559382dddd4da344f4b",
    "csf/skewed/order102": "65edc4b65c8da9f0c49428a206e7274b43f634ac46e12695e151c2a9d41b9671",
    "csf/skewed/order120": "97fc79329f2bf7b98216843ff997f0677c7257328966e043acd9c3a037a15a73",
    "csf/skewed/order201": "c56a07408c326c8e4d3152d69561a4a2bbc4f1ed7e14ba83ade55fa6d2ad50eb",
    "csf/skewed/order210": "ad1dd5359ee1f468b7c50860f96e424d23fab89c6bd5dd39a298210da3705be8",
    "csf/tiny/order012": "bbcd26e9d4fc14f9d8fc6348ed54e9665fec6c3cbcc6a92b7b0379b711036816",
    "csf/tiny/order021": "46f23cf771489bdb832e0f95d15d017da03065a16820705e2c44320dc3fc8f21",
    "csf/tiny/order102": "15f3cc7d623a405b97b0336f6b34376f78bef1ceb51f69ffbd3d9b7379adb794",
    "csf/tiny/order120": "a01932b959b94e12ebec8c279a8a4414e10c0ee89bdfa2a79fc556f3b02dcb5f",
    "csf/tiny/order201": "316b810373b677e2df51900f2c4f72a1b6c2dd72b115d9a83926cd5e68335206",
    "csf/tiny/order210": "1d0cfceab1671ce919f6378bc5d3ac8c3d31fea5eb21a30e43e773bef564ed93",
    "csf/uniform/order012": "c2c021cd80f70a5b339e83184512fcb27199ba86b051fa25ce2e96d47959af23",
    "csf/uniform/order021": "7bec4e9e27b2e4c1e91a568e51f067f84b480caa9b267c688c64e0f90b5af627",
    "csf/uniform/order102": "f30fab694e2fa6c087f857694ad198844a062e4ed955f3b8f0ed0ffbc253aee8",
    "csf/uniform/order120": "eb379809af7b1270caa2a0d1e60669718151d37cc0301101639594edb5abb076",
    "csf/uniform/order201": "cd4a3becfd4e30030fe9cae3f9ae821fbf237c30046e429698e5bf3758070189",
    "csf/uniform/order210": "df6fae5cdd57734c50373d06177a612fbedbd2faff7453cbf303ffd4a839bced",
    "deal/empty/lanes1": "5aecd7e71f9d677522e24d62c4746286e0f349b22b4ad0d46e43efe6f6610620",
    "deal/empty/lanes16": "5aecd7e71f9d677522e24d62c4746286e0f349b22b4ad0d46e43efe6f6610620",
    "deal/empty/lanes3": "5aecd7e71f9d677522e24d62c4746286e0f349b22b4ad0d46e43efe6f6610620",
    "deal/empty/lanes8": "5aecd7e71f9d677522e24d62c4746286e0f349b22b4ad0d46e43efe6f6610620",
    "deal/single/lanes1": "781a62d1350cd0bebe0a16cbd603d95ec8a3c02f7a9b8c0efa8cdef577a584c9",
    "deal/single/lanes16": "781a62d1350cd0bebe0a16cbd603d95ec8a3c02f7a9b8c0efa8cdef577a584c9",
    "deal/single/lanes3": "781a62d1350cd0bebe0a16cbd603d95ec8a3c02f7a9b8c0efa8cdef577a584c9",
    "deal/single/lanes8": "781a62d1350cd0bebe0a16cbd603d95ec8a3c02f7a9b8c0efa8cdef577a584c9",
    "deal/skewed/lanes1": "0182ae8db21b0a3b7c567541087ad888b693abb64eb75215f27915e0d9e0be7e",
    "deal/skewed/lanes16": "7ab0f1466e70aead79cf7dcaacab4ef34a450a4515fbf164c457fc8d05ff4fed",
    "deal/skewed/lanes3": "e3053baf73e8fe7d60f986d16a35ad8a9c793fa08e9325e8bdd39f2359a06d90",
    "deal/skewed/lanes8": "eb06bd61482355c2c40a42d75841c9e9b73b35d7de8051a0a24843ca08ffe3a1",
    "deal/uniform/lanes1": "fe3eb03a4eda5baf6e5732b95d48e55e1b15d68c8bc3382989c26c73a7cda9b3",
    "deal/uniform/lanes16": "37a55a9cbb08a551490da9921a55e840f808fb1b76555f6cc75f8474922647ba",
    "deal/uniform/lanes3": "9a624d9bfcac2f3bb545bfe8152caca357077690d97bce74e695bc2533874210",
    "deal/uniform/lanes8": "d2c893fa7fc98abbf2dca51c2db2c2f65900321213bad8154ec70c7c1f607864",
    "hicoo/2d/block128": "97a34b53369d41b4a13b7f40cfc7e7c6f6dcd3a2e327f3c7b5228d3622ec7a88",
    "hicoo/2d/block16": "84b3502d159026dd54c744626295aaa9a87ca0753ab5c61b94e2038bcb8597fa",
    "hicoo/2d/block4": "def0585820fa6eefc51035334733d85a4d10b650ca206863158c9615bfb362b2",
    "hicoo/4d-empty/block128": "55dded9469231ae533fccf5cc537422adf90919a84fb0703482afebfb0c9df6d",
    "hicoo/4d-empty/block16": "cc8707cb1a3a6ac3cf376fc62ef0aaad8e9a8c6db3e5e0857f30571535b2e92c",
    "hicoo/4d-empty/block4": "40ca46d31baae4d284146385641d4775c0c606f708d921ad6e23a237092af2cf",
    "hicoo/4d/block128": "c4df2a0114e5b035179efe5b191637c817eff194c1f83c61090203ed0ef56506",
    "hicoo/4d/block16": "2c3151fbda3335aef24a8bf04548823e3a204579cd1c3ec3e35c0933fd001337",
    "hicoo/4d/block4": "c7faf01b84c44bdd3484d33267c11d8f6717fecdf04afc2ea47155cbda3f7e9e",
    "hicoo/empty/block128": "bc377e8e301c50f1da3f40fab26df86808fd9afc34797ddbca97cacf72fa3daf",
    "hicoo/empty/block16": "97e30325fc1d8ec5546461bf921979c41359e06d4e1434e2d1a1918fe1a8ec9d",
    "hicoo/empty/block4": "e3284d551e5c9f9bf16793e096b65c8a419921cd854779577ba831d90cf25f09",
    "hicoo/skewed/block128": "d4b93ecd470a6e9d4cf14f24413ed4a173376eddb7197faa586f151b49cc175f",
    "hicoo/skewed/block16": "7730abcbe1915757dc599e89927794a6f75939d1d4e0dd2e695a3f3a27a3398a",
    "hicoo/skewed/block4": "d695d3b4898b187c5c1923c4d618969cfae16635f94e9d6817fd0d080a0bb2b2",
    "hicoo/tiny/block128": "36ca071ab03e007119470fde12fa4f6dfca5573b4c3fc7470600642a7c6e8757",
    "hicoo/tiny/block16": "b2447e6778381efda6d89b4127e88adc8eac9b4e8218ce76ea010009343082c1",
    "hicoo/tiny/block4": "fa5d086a457159a4f33a5240ab9bf2de1336845c3422c976272fd435fb771cb6",
    "hicoo/uniform/block128": "3c1bf2a36153d2965bf4e5b0178c4c47d41776b851eb455d79b6ef4d8ac3fb84",
    "hicoo/uniform/block16": "26f804910182dca8b6338a7ea746447e30b667115bc47a55179d8ce979b35485",
    "hicoo/uniform/block4": "c2fc91d15141ef8afba876cb7492e8ce4ec4d38a84002d1ded7d040fa37b7964",
}


def check(case, got):
    assert got == ENCODER_GOLDEN[case], f"{case}: digest moved"


def stream_digest(s) -> str:
    return digest(
        (s.shape, s.num_lanes), s.kinds, s.a_idx, s.k_idx, s.vals
    )


def nd_stream_digest(s: CISSTensorND) -> str:
    return digest((s.shape, s.mode, s.num_lanes), s.kinds, s.idx, s.vals)


def csf_digest(c: CSFTensor) -> str:
    return digest((c.shape, c.mode_order), *c.fids, *c.fptr, c.vals)


def hicoo_digest(h: HiCOOTensor) -> str:
    return digest((h.shape, h.block), h.bptr, h.bidx, h.eidx, h.vals)


SKEWED = random_sparse_tensor((60, 40, 30), 2000, skew=1.5, seed=1)
UNIFORM = random_sparse_tensor((60, 40, 30), 2000, skew=0.0, seed=2)
TINY = random_sparse_tensor((8, 5, 5), 10, seed=3)  # pad-heavy at 16 lanes
EMPTY = SparseTensor.empty((9, 7, 5))
TENSORS = {"skewed": SKEWED, "uniform": UNIFORM, "tiny": TINY, "empty": EMPTY}


# ---------------------------------------------------------------- CISS


@pytest.mark.parametrize("name", sorted(TENSORS))
@pytest.mark.parametrize("mode", [0, 1, 2])
@pytest.mark.parametrize("num_lanes", [1, 8, 16])
def test_ciss_tensor_agreement(name, mode, num_lanes):
    stream = CISSTensor.from_sparse(TENSORS[name], num_lanes, mode=mode)
    check(f"ciss/{name}/mode{mode}/lanes{num_lanes}", stream_digest(stream))
    assert stream.mode == mode


MATRICES = {
    "graph": graph_matrix(200, 3000, seed=4),
    "uniform": uniform_matrix((100, 80), 0.05, seed=5),
    "empty": COOMatrix((6, 4), [], [], []),
}


@pytest.mark.parametrize("name", list(MATRICES))
@pytest.mark.parametrize("num_lanes", [1, 8, 16])
def test_ciss_matrix_agreement(name, num_lanes):
    stream = CISSMatrix.from_coo(MATRICES[name], num_lanes)
    check(f"ciss-matrix/{name}/lanes{num_lanes}", stream_digest(stream))


ND_TENSORS = {
    "2d": random_sparse_tensor_nd((100, 80), 1500, seed=6),
    "4d": random_sparse_tensor_nd((20, 15, 12, 10), 1500, seed=7),
    "4d-empty": SparseTensor.empty((6, 5, 4, 3)),
}


@pytest.mark.parametrize("name", sorted(ND_TENSORS))
@pytest.mark.parametrize("num_lanes", [1, 8])
def test_ciss_nd_agreement(name, num_lanes):
    tensor = ND_TENSORS[name]
    for mode in range(tensor.ndim):
        stream = CISSTensorND.from_sparse(tensor, num_lanes, mode=mode)
        check(
            f"ciss-nd/{name}/mode{mode}/lanes{num_lanes}",
            nd_stream_digest(stream),
        )


# ---------------------------------------------------------------- CSF / HiCOO


@pytest.mark.parametrize("name", sorted(TENSORS))
def test_csf_agreement_all_orders(name):
    tensor = TENSORS[name]
    for order in itertools.permutations(range(3)):
        csf = CSFTensor.from_sparse(tensor, order)
        check(f"csf/{name}/order{''.join(map(str, order))}", csf_digest(csf))


@pytest.mark.parametrize("name", sorted(ND_TENSORS))
def test_csf_agreement_nd(name):
    check(f"csf/{name}", csf_digest(CSFTensor.from_sparse(ND_TENSORS[name])))


def tensor_1d() -> SparseTensor:
    rng = make_rng(14)
    idx = np.sort(rng.choice(50, size=20, replace=False))
    return SparseTensor((50,), idx[:, None], rng.standard_normal(20))


@pytest.mark.parametrize("name", ["1d", "1d-empty"])
def test_csf_1d(name):
    tensor = tensor_1d() if name == "1d" else SparseTensor.empty((7,))
    csf = CSFTensor.from_sparse(tensor)
    check(f"csf/{name}", csf_digest(csf))
    assert csf.to_sparse() == tensor


@pytest.mark.parametrize("name", sorted({**TENSORS, **ND_TENSORS}))
@pytest.mark.parametrize("block", [4, 16, 128])
def test_hicoo_agreement(name, block):
    tensor = {**TENSORS, **ND_TENSORS}[name]
    hicoo = HiCOOTensor.from_sparse(tensor, block=block)
    check(f"hicoo/{name}/block{block}", hicoo_digest(hicoo))
    assert hicoo.to_sparse() == tensor


# ---------------------------------------------------------------- scheduler


@pytest.mark.parametrize("num_lanes", [1, 3, 8, 16])
def test_least_loaded_deal_matches_reference(num_lanes):
    rng = make_rng(11)
    for kind, costs in (
        ("skewed", rng.integers(1, 40, size=500)),  # many ties
        ("uniform", np.full(100, 7, dtype=np.int64)),  # round-robin shortcut
        ("single", np.array([5], dtype=np.int64)),
        ("empty", np.empty(0, dtype=np.int64)),
    ):
        g_lane, g_off = least_loaded_deal(costs, num_lanes)
        check(f"deal/{kind}/lanes{num_lanes}", digest(g_lane, g_off))


def test_least_loaded_deal_rejects_bad_lanes():
    with pytest.raises(ShapeError):
        least_loaded_deal(np.array([1, 2]), 0)


# ---------------------------------------------------------------- ablation


def round_robin_deal(costs, num_lanes):
    """Deal groups cyclically, ignoring load: group ``g`` to lane ``g % P``."""
    lanes = np.arange(costs.shape[0], dtype=np.int64) % num_lanes
    offsets = np.zeros_like(lanes)
    for lane in range(num_lanes):
        mine = lanes == lane
        offsets[mine] = np.cumsum(costs[mine]) - costs[mine]
    return lanes, offsets


def header_lanes(stream) -> np.ndarray:
    """The lane of each group's header, in group-id order."""
    heads = stream.kinds == KIND_HEADER
    return np.nonzero(heads)[1][np.argsort(stream.a_idx[heads])]


def test_patched_deal_reaches_ciss_encoders(monkeypatch):
    """Ablations swap the dealing policy by patching ``least_loaded_deal``;
    both CISS encoders look it up at call time."""
    least_loaded = header_lanes(CISSTensor.from_sparse(SKEWED, 8))
    assert not np.array_equal(least_loaded, np.arange(least_loaded.size) % 8)
    monkeypatch.setattr(ciss_mod, "least_loaded_deal", round_robin_deal)
    coo = MATRICES["graph"]
    tensor_stream = CISSTensor.from_sparse(SKEWED, 8)
    matrix_stream = CISSMatrix.from_coo(coo, 8)
    for stream in (tensor_stream, matrix_stream):
        lanes = header_lanes(stream)
        assert np.array_equal(lanes, np.arange(lanes.size) % 8)
    assert tensor_stream.to_sparse() == SKEWED
    assert (
        matrix_stream.to_coo().to_dense().tobytes()
        == coo.to_dense().tobytes()
    )


# ---------------------------------------------------------------- caching


def test_lane_records_and_trace_are_cached():
    stream = CISSTensor.from_sparse(SKEWED, 8)
    records = stream.lane_records(3)
    assert stream.lane_records(3) is records
    assert stream.lane_records(4) is not records
    trace = stream.pe_address_trace()
    assert stream.pe_address_trace() is trace
    assert stream.pe_address_trace(data_width=8) is not trace


# ---------------------------------------------------------------- SF3


def sf3_case_tensor(mode: int = 0):
    """A small tensor plus factors for the two non-``mode`` modes."""
    tensor = random_sparse_tensor((30, 20, 15), 600, seed=8)
    rng = make_rng(9)
    rest = [m for m in range(3) if m != mode]
    b = rng.random((tensor.shape[rest[0]], 6))
    c = rng.random((tensor.shape[rest[1]], 6))
    return tensor, b, c


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_sf3_mttkrp_array_byte_identity(mode):
    tensor, b, c = sf3_case_tensor(mode)
    tup = sf3_spec_mttkrp(tensor, b, c, mode=mode)
    arr = sf3_spec_mttkrp(tensor, b, c, mode=mode, layout="array")
    assert execute_sf3(tup).tobytes() == execute_sf3(arr).tobytes()


def test_sf3_ttmc_array_byte_identity():
    tensor, b, c = sf3_case_tensor()
    tup = sf3_spec_ttmc(tensor, b, c)
    arr = sf3_spec_ttmc(tensor, b, c, layout="array")
    assert execute_sf3(tup).tobytes() == execute_sf3(arr).tobytes()


def test_sf3_spmm_spmv_array_byte_identity():
    a = CSRMatrix.from_coo(graph_matrix(120, 1500, seed=10))
    rng = make_rng(12)
    b = rng.random((120, 8))
    tup = sf3_spec_spmm(a, b)
    arr = sf3_spec_spmm(a, b, layout="array")
    assert execute_sf3(tup).tobytes() == execute_sf3(arr).tobytes()
    vec = rng.random(120)
    tup_v = sf3_spec_spmv(a, vec)
    arr_v = sf3_spec_spmv(a, vec, layout="array")
    assert execute_sf3(tup_v).tobytes() == execute_sf3(arr_v).tobytes()


def test_sf3_layout_round_trip():
    tensor, b, c = sf3_case_tensor()
    tup = sf3_spec_mttkrp(tensor, b, c)
    arr = tup.to_array_spec()
    assert arr.to_spec().groups == tup.groups
    again = arr.to_spec().to_array_spec()
    for field in ("group_ids", "group_ptr", "d1_idx", "d1_ptr", "d0_idx"):
        assert np.array_equal(getattr(arr, field), getattr(again, field))
    assert arr.d0_val.tobytes() == again.d0_val.tobytes()


def test_sf3_layout_validation():
    tensor, b, c = sf3_case_tensor()
    with pytest.raises(Exception):
        sf3_spec_mttkrp(tensor, b, c, layout="columnar")
