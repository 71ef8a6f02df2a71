"""Golden bundles: a fixed ledger and config must give byte-identical outputs.

One ledger is a small seeded economy (a Pareto-weighted core plus planted
cycles, feeders, sinks, bridges and stars) so every topology kind occurs;
the other is the demo ledger shipped in ``demos/data``, whose collector
stars give non-zero triad censuses. Variants of the seeded economy rewrite
its amounts, or put cells that need quoting (commas, quotes, ``\r``,
``\n``) and non-ASCII text into its ids, accounts and kept subtypes.
Every bundle file is hashed; the manifest is hashed without its wall times,
input path, library versions and worker count, the only fields that may
differ between runs of the same code. ``ledgerflow generate`` is held to
golden hashes too: the ledger and ground truth of one fixed scenario and
seed.
"""

import csv
import hashlib
import io
import json
import random
from datetime import datetime, timezone
from pathlib import Path

import pytest

from ledgerflow.cli import main
from ledgerflow.ingest import FilterSpec
from ledgerflow.pipeline import PipelineConfig, run_pipeline

DEMO_LEDGER = Path(__file__).resolve().parent.parent / "demos" / "data" / "demo_ledger.csv"

_VOLATILE = (("stages",), ("input", "path"), ("versions",), ("config", "jobs"))

# A change that alters any of these outputs on purpose must say so and
# record the new hashes.
GOLDEN = {
    "category_stats.csv":
        "4e8fdcd4b7009a3e893e983709f5734e13b8629f9a63032fb57cb9921df555b8",
    "category_stats.json":
        "7f61f9d874292fdb68727b84cc6613a6ec9f6a1b098334f1e7ce6fb610c8ef51",
    "degree_stats.json":
        "23ed4f735921f55ef4ea0e323cb2a096265b0f12aa7bd2a99dd99677eff4e1fb",
    "edge_assignment.csv":
        "f778907b89a99f72675531431fa7c9907244ce9d70a0b09c3b33efb332c28232",
    "ingest_diagnostics.json":
        "ac38847f361b6217c23a8817e6b1f0a3741f4d84c4a47af9abb8fe648a799e0b",
    "ledger_totals.json":
        "757bd67ae9f1a7ca669dae76f0dac20c4f268edc3effdd42b798e01c94b67fc1",
    "manifest.json":
        "55196c56c5fcaf1ca897e97fd332e963cd10d12fc7aa9bf7b0ddac57cf6cfb4c",
    "node_assignment.csv":
        "0771bc8cbcd3c790508d43e26d790427c0068e0eb74cd33558f7dcc9a85e13b9",
    "one_time_users.csv":
        "ecf1178bc073833dccd7309c97042c89e2522951d372683e77dcde87133088ae",
    "one_time_users.json":
        "b5d11273f95823bfe4386fd88ca97f74b83719944413a333051f1e99e2e95333",
    "operations.csv":
        "52b5dc93a2ff9d3651d8d9338b6bfe8c19ed8785f4c9b576c0f352bca5d90619",
    "recirculation_boundaries.json":
        "d9fe84c8afe23f01bc6548248334447e343b215ded5ca35adc01890b78823471",
    "recirculation_coverage.json":
        "4a18ec700d2309940ce599de10ad44eed713f8a86adea56a7dd3529714b9d737",
    "recirculation_tx_crosstab.csv":
        "48f10058f2c8f4ea42893a074522213f62403391b7a1223b2d09b5d833af2cb4",
    "recirculation_user_crosstab.csv":
        "f54628d601d8cd4f473f15af5ceda02b4094c8de47490a15c712580c7eb8da0a",
    "significance_both.csv":
        "35f470aa98e8d364425ffac9591639e23a478a590ea4f04330ff157894ca6e57",
    "significance_both.json":
        "66ca3c6c31361bfa0d6f8583ca74ecad08a65f07f15bca2319b213b3f5c99bbe",
    "significance_source.csv":
        "df3e8e9aea2c5f9e76a4e93ec76cfa195a001b1f3f080e5795e3fd9177cf96b6",
    "significance_source.json":
        "f5506fbc36fa74bc774e317a2f1fe750097e1886aef19cbc9b68fcb275952d5c",
    "significance_target.csv":
        "63b0f35624d78335542b232a103de4d43f996ec8d41884aa0776a75b9e6eb296",
    "significance_target.json":
        "57ad7afea5f14d8e79b8ec5b1968419790be65947d3dc78fb4f449cd3dd9d745",
    "strategy_report.json":
        "2e8a5451ecf6949e163f31d4a3acf670fb8a4c0c7e3bb1d4a99f1974fd32e6c1",
    "transactions_normalized.csv":
        "38cdd0825b348cbf0a142ef5461c45d493da7ea340e67037593e9c20852d570c",
    "triad_census.csv":
        "8753ed861d123b7812dfaa0e63beb45262f2c387026b650590046f199933096d",
    "triad_census.json":
        "210c435d7f37d8eab29932fce9cabf4015233b70a82f53aa386bc3430c53e45f",
    "triad_significance_both.csv":
        "6e851d9214cc719767eb618397f070abe5d548e0dc468ffcbcec6e890b3ad085",
    "triad_significance_both.json":
        "7bdc232146e414a007027adf03f61935187fbd2023519dd6c548cc1deca93752",
    "triad_significance_source.csv":
        "e91f040fb5048511576b845c477469121d2110e5697cf6bfd7abd7b9ff544484",
    "triad_significance_source.json":
        "65747768c9e022512ea8603e64cbde91b6f755e6bab0c4d6ab0d6ff5b185fbba",
    "triad_significance_target.csv":
        "a79e6e0d87bcb61e4633519e03fde44069ee519a5f0b630122ce0831416e731a",
    "triad_significance_target.json":
        "701a0e25f7b70a2fd2b1985ed9a1bc6620841c44eb3c376c0c08413519a64fa4",
    "user_signatures.csv":
        "b96ac76248c3390bf8133a1a6496e974313712de6c538ea832c9c55c0cc4dfad",
}


DEMO_GOLDEN = {
    "category_stats.csv":
        "18c3822d1fb7dbd8792a207a32275150260b3b00c96962873979cbcb94d59171",
    "category_stats.json":
        "2374aa32847b07a1eec065e316904c9381735d15f90c910a4a74d7b660453bae",
    "degree_stats.json":
        "685d7367bc2e9709ab1229c56d3d6a05d8171d89564cebb132ccdbd4845008f3",
    "edge_assignment.csv":
        "98aafa258e8fae1959fb6287ef48199793f32618ecb09da62af2aa22ef7dbd1b",
    "ingest_diagnostics.json":
        "db1b4b3bc6fcaadc55b0a216a761dfa247be17488182d95fb90699b8ea3ead85",
    "ledger_totals.json":
        "a8e483e436e623d81661603a6bde2227abcc061b6398f0ca02053d7d942e370e",
    "manifest.json":
        "c8698b475bc9dfa00d71a1487a2c1e8ba382b63bc7b76687386cece4714a2145",
    "node_assignment.csv":
        "2d68c16978549cb5f51fa6a0e5b44f964b4939eacabd6db749c5c3b3579e38ec",
    "one_time_users.csv":
        "f207cc253a68885f99143b164da1c597f61a73b6e17641c6b735f5e5ebf2f541",
    "one_time_users.json":
        "228d8955e8c107e068d0c6ff9803a2cadbd9b59c4b7b075a6666f953c1f70d7d",
    "operations.csv":
        "22b9eb843b2dc55a6a443b319bd67205f5fbf8c17a59e5d0189392d559142a7e",
    "recirculation_boundaries.json":
        "842c3406b1935cd7a6e45de39e6d0143197cf46cce42cb86c3742d0a965910a8",
    "recirculation_coverage.json":
        "5d66cc809e4f8bd7693f442650aa9e8e6efc926b68bd2306152a2cce4fd85cff",
    "recirculation_tx_crosstab.csv":
        "2e742556028655905e06a28f677a86da83cb8aa6a477a1bf0271b52ff79424f4",
    "recirculation_user_crosstab.csv":
        "a6b17991b7d4106d6d9cb6db20703c8c6f22b2c04bd49d6f3294fa3cf75a6774",
    "significance_both.csv":
        "d899ec08ea40c1bea80ed1484a80a9d38b916bd417edbf62d5e2d82267bc9307",
    "significance_both.json":
        "d0d6c9a179057e8ea02a14d58abf57721149c11a6a8592d997b2963f652e5ac3",
    "significance_source.csv":
        "6ac37ab85a9225f212918a6a0d07c23b74f5a5f79ee28dd38f29a17c9b4ed7ec",
    "significance_source.json":
        "ab4027eb52171aa10609b5c31bcaa20f4400c96d88c79b46c10465a44dc8fb83",
    "significance_target.csv":
        "c6a8e539411ae051f4eddcc348a85b9a7c69078f9837e10f1f5ace926d60a496",
    "significance_target.json":
        "7a7b5b18ab6f0e9949ce8eecdf34be59638616e98e6a53597a96726c0cfef18a",
    "strategy_report.json":
        "b44626d156f31ef73d0195ce11dcc751a2e91f1f53f649f13a5575f133ee3583",
    "transactions_normalized.csv":
        "7b647c0cc02731d462217c623d34ad6d52b4cd419ffd4c446d97dd5af3c04901",
    "triad_census.csv":
        "98007efcd3aaea051dc363f268ecb79d78f41e47b39d0a8361a7c440fbcd9877",
    "triad_census.json":
        "3f38a8f41fd3a1efdaab73a103e446ba0c4baf1564a328fcbb7c04c0b4058872",
    "triad_significance_both.csv":
        "9f879ab10d7cec25a8752ce73bc06631096a94243e79b82855dc9588dcbda786",
    "triad_significance_both.json":
        "e728f0984d0a31dd8d7c0a559e788eb30ff4b81e92a867627a8dcdb31cfbd40b",
    "triad_significance_source.csv":
        "770b3b6e07d228c1f1eead2484a53a212610abd254ebc98851f117f5521e4636",
    "triad_significance_source.json":
        "c45929f667034d573891038a30dd7d3fd4165857cc0e3ef44b456c810721f378",
    "triad_significance_target.csv":
        "6832c95ac0c905073bdae68684c77831c67070827a9e6d07030ecb9c374c85a5",
    "triad_significance_target.json":
        "33f8e95e464d5f44548e3eee52894bdcb001b531d77697d480bd0cfc46861fd7",
    "user_signatures.csv":
        "e1a5b9c9cd3062f2ecc09828cd4454a4017acf7f837dbfe12ff92112008b7bc5",
}
MIXED_EXPONENT_GOLDEN = {
    "category_stats.csv":
        "d46e427b5e67e00a20db5db505185ffa4832dc119559aac6f0fc08933c9e1fe6",
    "category_stats.json":
        "7836954d9dcdf879f2b39d7991226a96b496ad12830732a05e1a23b09a7242d2",
    "degree_stats.json":
        "b7ec40e546ad9a03437e384986bf9e0258b957ff8921a223249b1246bfa1e1fa",
    "edge_assignment.csv":
        "f778907b89a99f72675531431fa7c9907244ce9d70a0b09c3b33efb332c28232",
    "ingest_diagnostics.json":
        "ac38847f361b6217c23a8817e6b1f0a3741f4d84c4a47af9abb8fe648a799e0b",
    "ledger_totals.json":
        "8a6908e8b204be8b11cfeac236beb17f4373eeaec49709164c4bbe2788d1ceb0",
    "manifest.json":
        "ab409f933c74c6a677f2b810a8a3a9be65c739ea8a781339477770466a909e98",
    "node_assignment.csv":
        "0771bc8cbcd3c790508d43e26d790427c0068e0eb74cd33558f7dcc9a85e13b9",
    "one_time_users.csv":
        "ecf1178bc073833dccd7309c97042c89e2522951d372683e77dcde87133088ae",
    "one_time_users.json":
        "b5d11273f95823bfe4386fd88ca97f74b83719944413a333051f1e99e2e95333",
    "operations.csv":
        "52b5dc93a2ff9d3651d8d9338b6bfe8c19ed8785f4c9b576c0f352bca5d90619",
    "recirculation_boundaries.json":
        "d9fe84c8afe23f01bc6548248334447e343b215ded5ca35adc01890b78823471",
    "recirculation_coverage.json":
        "edfe9d755113af9a3a2603a17543a49e635ae2bad2297b1090a8cb5d0b0a75e4",
    "recirculation_tx_crosstab.csv":
        "48f10058f2c8f4ea42893a074522213f62403391b7a1223b2d09b5d833af2cb4",
    "recirculation_user_crosstab.csv":
        "f54628d601d8cd4f473f15af5ceda02b4094c8de47490a15c712580c7eb8da0a",
    "significance_both.csv":
        "4c04bfcef1a5e0801bea31e76bd0723fc077e6118ec9e171242d45a9c5753e39",
    "significance_both.json":
        "07a75151498f514f89469ef87052a4f2eeb50c286221217841e69dce2c16a749",
    "significance_source.csv":
        "0f07561e30608cd9e1728a462057924f048de43bd207a8d35f706bf359d37da8",
    "significance_source.json":
        "3ceaad38000d45153f93e5e5b2854fcaf9b52c268cdde7045a954517dfb89e20",
    "significance_target.csv":
        "a7aa4d679f5191cecab982cd02eb0f40259df7a22ffa134666d95df6a8ecb102",
    "significance_target.json":
        "d2e47a5564c6c747bf8db2c2a6cddcbdbe8037209eb2c9eb556fc34a889870d1",
    "strategy_report.json":
        "57b165851d92746aff7eddaf23b0beb61ca720a563c148a3b0744abe86ace1a9",
    "transactions_normalized.csv":
        "e35c2cf814c51759fa513cde52c97c95f70869e463232e1ab262deb9f5a6a191",
    "triad_census.csv":
        "8753ed861d123b7812dfaa0e63beb45262f2c387026b650590046f199933096d",
    "triad_census.json":
        "210c435d7f37d8eab29932fce9cabf4015233b70a82f53aa386bc3430c53e45f",
    "triad_significance_both.csv":
        "6e851d9214cc719767eb618397f070abe5d548e0dc468ffcbcec6e890b3ad085",
    "triad_significance_both.json":
        "7bdc232146e414a007027adf03f61935187fbd2023519dd6c548cc1deca93752",
    "triad_significance_source.csv":
        "e91f040fb5048511576b845c477469121d2110e5697cf6bfd7abd7b9ff544484",
    "triad_significance_source.json":
        "65747768c9e022512ea8603e64cbde91b6f755e6bab0c4d6ab0d6ff5b185fbba",
    "triad_significance_target.csv":
        "a79e6e0d87bcb61e4633519e03fde44069ee519a5f0b630122ce0831416e731a",
    "triad_significance_target.json":
        "701a0e25f7b70a2fd2b1985ed9a1bc6620841c44eb3c376c0c08413519a64fa4",
    "user_signatures.csv":
        "b96ac76248c3390bf8133a1a6496e974313712de6c538ea832c9c55c0cc4dfad",
}

PAST_INT64_GOLDEN = {
    "category_stats.csv":
        "39b228572a2850159d85f60189a111da2731d889cb8ff79ed00df0f817cf57df",
    "category_stats.json":
        "456e03c95312fba094669869bd46203d72ec31e87e368a10f5607e61415a3b35",
    "degree_stats.json":
        "b0412018ee2a2caf8358c7d2d0f124c45186b13cf0e05f8d90044404429442dc",
    "edge_assignment.csv":
        "f778907b89a99f72675531431fa7c9907244ce9d70a0b09c3b33efb332c28232",
    "ingest_diagnostics.json":
        "ac38847f361b6217c23a8817e6b1f0a3741f4d84c4a47af9abb8fe648a799e0b",
    "ledger_totals.json":
        "d74643d75e5f2b61760553f261fd8739f9287ca039a67eec7df4ece62bfd8c53",
    "manifest.json":
        "537debec7b36c4c422959a5ad5ebbca75fbed6d0f5f238db56b676c8e3ed427f",
    "node_assignment.csv":
        "0771bc8cbcd3c790508d43e26d790427c0068e0eb74cd33558f7dcc9a85e13b9",
    "one_time_users.csv":
        "ecf1178bc073833dccd7309c97042c89e2522951d372683e77dcde87133088ae",
    "one_time_users.json":
        "b5d11273f95823bfe4386fd88ca97f74b83719944413a333051f1e99e2e95333",
    "operations.csv":
        "52b5dc93a2ff9d3651d8d9338b6bfe8c19ed8785f4c9b576c0f352bca5d90619",
    "recirculation_boundaries.json":
        "d9fe84c8afe23f01bc6548248334447e343b215ded5ca35adc01890b78823471",
    "recirculation_coverage.json":
        "177f69be73c9483a6e485f6fbed419efb1e85278f78780d00de387eeb345a85f",
    "recirculation_tx_crosstab.csv":
        "48f10058f2c8f4ea42893a074522213f62403391b7a1223b2d09b5d833af2cb4",
    "recirculation_user_crosstab.csv":
        "f54628d601d8cd4f473f15af5ceda02b4094c8de47490a15c712580c7eb8da0a",
    "significance_both.csv":
        "e9ae2c987cef820f54a7b1e70b4c04f70d498ee8bd95efdc480feacb1f20f04c",
    "significance_both.json":
        "0788fa03e0416e7ad0056a646cc1d7c76941885e1883091107b1b0e863d39fbe",
    "significance_source.csv":
        "bbcc5a1fca507a8e32a905e9a5e42facb51471b53ac9edf83090a1cc29803cc6",
    "significance_source.json":
        "f62335a4e442d9e62994699b62e48ae143a2cd7a078106da93dc5885a2f90585",
    "significance_target.csv":
        "df28f741ddf37d343e929050ce2c5f7cc5b4d509a49d1798d78e62ad9dc7c906",
    "significance_target.json":
        "da816f904704fc810dd94479b9284901fdf93434df86f67f04cc0e4543230fb0",
    "strategy_report.json":
        "e8653a1d9fbfced36193d71465f721ecfaa729857365c83b9fb72e9899343417",
    "transactions_normalized.csv":
        "9b051b652b89013d48e05a4f862a6c0fb509ef5da9cfb2c37699adff52ffb7c9",
    "triad_census.csv":
        "8753ed861d123b7812dfaa0e63beb45262f2c387026b650590046f199933096d",
    "triad_census.json":
        "210c435d7f37d8eab29932fce9cabf4015233b70a82f53aa386bc3430c53e45f",
    "triad_significance_both.csv":
        "6e851d9214cc719767eb618397f070abe5d548e0dc468ffcbcec6e890b3ad085",
    "triad_significance_both.json":
        "7bdc232146e414a007027adf03f61935187fbd2023519dd6c548cc1deca93752",
    "triad_significance_source.csv":
        "e91f040fb5048511576b845c477469121d2110e5697cf6bfd7abd7b9ff544484",
    "triad_significance_source.json":
        "65747768c9e022512ea8603e64cbde91b6f755e6bab0c4d6ab0d6ff5b185fbba",
    "triad_significance_target.csv":
        "a79e6e0d87bcb61e4633519e03fde44069ee519a5f0b630122ce0831416e731a",
    "triad_significance_target.json":
        "701a0e25f7b70a2fd2b1985ed9a1bc6620841c44eb3c376c0c08413519a64fa4",
    "user_signatures.csv":
        "b96ac76248c3390bf8133a1a6496e974313712de6c538ea832c9c55c0cc4dfad",
}

# Recorded with the writer that built one string per cell.
QUOTED_GOLDEN = {
    "category_stats.csv":
        "4e8fdcd4b7009a3e893e983709f5734e13b8629f9a63032fb57cb9921df555b8",
    "category_stats.json":
        "7f61f9d874292fdb68727b84cc6613a6ec9f6a1b098334f1e7ce6fb610c8ef51",
    "degree_stats.json":
        "a3d73b4d91705be092c311d6d87a5ebb2ddb09174fbafa50f2f98e7ae417e168",
    "edge_assignment.csv":
        "13b46d980c0fb617524a6966edb1f5b249aa1aa0a0f3a7461608664088ef1e8e",
    "ingest_diagnostics.json":
        "ac38847f361b6217c23a8817e6b1f0a3741f4d84c4a47af9abb8fe648a799e0b",
    "ledger_totals.json":
        "757bd67ae9f1a7ca669dae76f0dac20c4f268edc3effdd42b798e01c94b67fc1",
    "manifest.json":
        "3b06ac2db5535e799aeaef857bba53291188d40b1b7bc2b4a66359382d10429b",
    "node_assignment.csv":
        "a0f1c46db5a12202d1f867e5794c6f2fc1caa17957a29185bb2a8b3da9d2dcdb",
    "one_time_users.csv":
        "ecf1178bc073833dccd7309c97042c89e2522951d372683e77dcde87133088ae",
    "one_time_users.json":
        "b5d11273f95823bfe4386fd88ca97f74b83719944413a333051f1e99e2e95333",
    "operations.csv":
        "088513dbfd2ae75dbaa0d3841e49fc49107d0c9bb8e6d067351c5907973d07ec",
    "recirculation_boundaries.json":
        "d9fe84c8afe23f01bc6548248334447e343b215ded5ca35adc01890b78823471",
    "recirculation_coverage.json":
        "4a18ec700d2309940ce599de10ad44eed713f8a86adea56a7dd3529714b9d737",
    "recirculation_tx_crosstab.csv":
        "48f10058f2c8f4ea42893a074522213f62403391b7a1223b2d09b5d833af2cb4",
    "recirculation_user_crosstab.csv":
        "f54628d601d8cd4f473f15af5ceda02b4094c8de47490a15c712580c7eb8da0a",
    "significance_both.csv":
        "b49ebaae4c08a55e044cd4a1f16d878b491e7cced813533c964ceeddc691f0c6",
    "significance_both.json":
        "f2500cc17b66ebebde93fb135dc1836506cdd4c18084ff75f0b9d506fbc763d5",
    "significance_source.csv":
        "5aacb6f32c131102ecc8a56e9032e6c2e738d8d34f9ab49eecf23e4204cb9033",
    "significance_source.json":
        "d318c0804023637925e8ebd39a38ac4e7599dc681a2102ca5b7a2b4a108538ab",
    "significance_target.csv":
        "2f5394bea3eb77ab1428aa049215bf798da20c19db3582535272fbcd22fb9ca6",
    "significance_target.json":
        "7f0cbd5edc2f0dd7c0eb420065d8182a790cf41a353ad49210fcbaba961e6b2b",
    "strategy_report.json":
        "2e8a5451ecf6949e163f31d4a3acf670fb8a4c0c7e3bb1d4a99f1974fd32e6c1",
    "transactions_normalized.csv":
        "631e695a9b86a8b4ef8a2cb6e89c96955b3e31d2a406272311ff4906f6800fcc",
    "triad_census.csv":
        "8753ed861d123b7812dfaa0e63beb45262f2c387026b650590046f199933096d",
    "triad_census.json":
        "210c435d7f37d8eab29932fce9cabf4015233b70a82f53aa386bc3430c53e45f",
    "triad_significance_both.csv":
        "d5a0644f57e2f3f21650dfb48e2e865ebab53e856a6a11ad8dd683ffcb1ab045",
    "triad_significance_both.json":
        "98546b1fca410620129064c1dc4d5435a9c4986c8ac8338098bcdf7a81b2683b",
    "triad_significance_source.csv":
        "1cde62d547be33a9579ad69515ae5f5344ad79f034ccb0f99de0d6c23d9e0104",
    "triad_significance_source.json":
        "f80d8f5386cbde880e545755d72e141d2d3c42a7de50bd7232ea6785d12afbed",
    "triad_significance_target.csv":
        "0132dd0d1bbdc1370c0b6c3044350e5e726ecb0223f306bbd65596eae2a65763",
    "triad_significance_target.json":
        "d2063cacc204a2b551a1aa72c871b9d0fdcbe03ee1d86cc636bc0f27af131bf6",
    "user_signatures.csv":
        "778ed047309380c508ce429ec174db52ecaf319d1c5bc4b911ac6995ea9f3504",
}

# Every structure kind, in a two-day horizon.
GENERATE_ARGS = ["--seed", "7", "--cycles", "3", "--cycle-length", "4", "--cliques", "2",
                 "--clique-size", "3", "--stars", "2", "--star-arms", "3", "--dyads", "3",
                 "--horizon-days", "2"]

GENERATE_GOLDEN = {
    "ground_truth.csv":
        "843ade10f83e67290e6aa3c61ac7c65bd6e253dd8112e4845188ea50d4e05b2b",
    "ledger.csv":
        "85df6dddf37ccb2e076fdcaa1991ce7ab16763d9445e4dcd8db0615ead91d262",
}


def _ledger_text(accounts: int, seed: int) -> str:
    rng = random.Random(seed)
    ids = [f"acct{i:04d}" for i in range(accounts)]
    rng.shuffle(ids)
    periphery, core = ids[:60], ids[60:]
    out_w = [rng.paretovariate(1.2) for _ in core]
    in_w = [w * rng.uniform(0.5, 2.0) for w in out_w]
    hubs = sorted(core, key=lambda v: -out_w[core.index(v)] * in_w[core.index(v)])[:10]

    links: list[tuple[str, str]] = []
    while len(links) < 3 * len(core):
        s = rng.choices(core, weights=out_w)[0]
        t = rng.choices(core, weights=in_w)[0]
        if s != t and (s, t) not in links:
            links.append((s, t))

    pool = iter(periphery)

    def cycle(k: int) -> list[str]:
        members = [next(pool) for _ in range(k)]
        links.extend(zip(members, members[1:] + members[:1]))
        return members

    for k in (2, 3, 4):                                   # scc0
        cycle(k)
    for k in (2, 3):                                      # sccTin + in-single-node
        links.append((next(pool), rng.choice(cycle(k))))
    for k in (2, 3):                                      # sccTout + out-single-node
        links.append((rng.choice(cycle(k)), next(pool)))
    up, down, bridge = cycle(2), cycle(2), next(pool)     # bridge_scc
    links += [(up[0], bridge), (bridge, down[0])]
    links.append((rng.choice(hubs), rng.choice(cycle(3))))  # edge_scc2scc
    for arms, kind in ((3, "in"), (4, "out"), (3, "plain"), (5, "in"), (4, "out")):
        hub, *leaves = [next(pool) for _ in range(arms + 1)]
        links += [(leaf, hub) if kind == "in" else (hub, leaf) for leaf in leaves]
        if kind == "in":
            links.append((hub, rng.choice(hubs)))         # dagTin, edge_dag2scc
        elif kind == "out":
            links.append((rng.choice(hubs), hub))         # dagTout, edge_scc2dag

    rows = []
    for s, t in links:
        for _ in range(1 + int(rng.paretovariate(1.5)) % 6):
            rows.append((s, t, "STANDARD"))
    for _ in range(12):
        s, t = rng.sample(core, 2)
        rows.append((s, t, rng.choice(("DISBURSEMENT", "RECLAMATION"))))
    for _ in range(3):
        s = rng.choice(core)
        rows.append((s, s, "STANDARD"))
    rng.shuffle(rows)

    start = int(datetime(2020, 1, 1, tzinfo=timezone.utc).timestamp())
    lines = ["id,timeset,source,target,weight,transfer_subtype\n"]
    for i, (s, t, subtype) in enumerate(rows):
        stamp = datetime.fromtimestamp(start + rng.randrange(60 * 86_400), tz=timezone.utc)
        amount = f"{10 * rng.paretovariate(1.6):.2f}"
        lines.append(f"g{i:05d},{stamp:%Y-%m-%dT%H:%M:%S},{s},{t},{amount},{subtype}\n")
    return "".join(lines)


def _with_amounts(text: str, amounts: tuple[str, ...]) -> str:
    """``text`` with the amount of data row ``k`` replaced by
    ``amounts[k % len(amounts)]``; rows are shuffled, so a link with
    several rows mixes several of them."""
    header, *rows = text.splitlines(keepends=True)
    lines = [header]
    for k, row in enumerate(rows):
        cells = row.split(",")
        cells[4] = amounts[k % len(amounts)]
        lines.append(",".join(cells))
    return "".join(lines)


# Cells that csv.writer quotes (a comma, a quote, "\r", "\n") and
# non-ASCII text, put into ids, accounts and kept subtypes in turn.
_MARKS = (",", '"', "\r", "\n", "é字", "")
_QUOTED_SUBTYPES = tuple(f"STAND{mark}ARD" for mark in _MARKS)


def _with_quoted_cells(text: str) -> str:
    """``text`` with every id, account and STANDARD subtype holding one of
    ``_MARKS`` inside it, written back by ``csv.writer`` (CRLF line ends,
    so the row loop parses it)."""
    header, *rows = csv.reader(io.StringIO(text))
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    for k, (tx_id, stamp, source, target, amount, subtype) in enumerate(rows):
        def account(name: str) -> str:
            number = int(name.removeprefix("acct"))
            return f"a{_MARKS[number % len(_MARKS)]}cct{number:04d}"
        if subtype == "STANDARD":
            subtype = _QUOTED_SUBTYPES[k % len(_QUOTED_SUBTYPES)]
        writer.writerow((f"g{_MARKS[k % len(_MARKS)]}{tx_id}", stamp, account(source),
                         account(target), amount, subtype))
    return out.getvalue()


def _file_hashes(bundle) -> dict[str, str]:
    hashes = {}
    for path in sorted(bundle.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            for keys in _VOLATILE:
                node = manifest
                for key in keys[:-1]:
                    node = node.get(key, {})
                node.pop(keys[-1], None)
            data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
        hashes[path.name] = hashlib.sha256(data).hexdigest()
    return hashes


def test_golden_bundle(tmp_path):
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(_ledger_text(300, 11), encoding="utf-8")
    out = tmp_path / "out"
    args = ["run", str(ledger), "--output", str(out), "--mode", "all",
            "--replicas", "8", "--seed", "5"]
    assert main(args) == 0

    stats = json.loads((out / "category_stats.json").read_text())
    assert stats["sccTmix"]["node_count"] > 0
    assert any(stats[c]["node_count"] for c in ("in-single-node", "out-single-node", "bridge_scc"))
    assert any(stats[c]["node_count"] for c in ("dagTin", "dagTout", "dagTmix"))
    assert any(stats[c]["link_count"] for c in ("edge_dag2scc", "edge_scc2dag", "edge_scc2scc"))
    assert _file_hashes(out) == GOLDEN


@pytest.mark.parametrize("amounts, golden", [
    # One scale for every amount, and each sum at its own smallest exponent.
    (("1", "1.0", "1E+2", "0E-5", "-0", "0.000"), MIXED_EXPONENT_GOLDEN),
    # Units of 1E+10 at the scale of 1E-30 are past int64.
    (("1E-30", "1E+10", "3.75", "12"), PAST_INT64_GOLDEN),
], ids=["mixed-exponents", "past-int64"])
def test_golden_bundle_of_rewritten_amounts(tmp_path, amounts, golden):
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(_with_amounts(_ledger_text(300, 11), amounts), encoding="utf-8")
    out = tmp_path / "out"
    args = ["run", str(ledger), "--output", str(out), "--mode", "all",
            "--replicas", "8", "--seed", "5"]
    assert main(args) == 0
    assert _file_hashes(out) == golden


def test_golden_bundle_of_quoted_cells(tmp_path):
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(_with_quoted_cells(_ledger_text(300, 11)), encoding="utf-8", newline="")
    out = tmp_path / "out"
    config = PipelineConfig(input_path=ledger, output_dir=out, replicas=8, master_seed=5,
                            filter_spec=FilterSpec(keep_subtypes=_QUOTED_SUBTYPES))
    run_pipeline(config)
    transactions = (out / "transactions_normalized.csv").read_bytes()
    assert all(b'"g' + mark in transactions for mark in (b",", b'"', b"\r", b"\n"))
    assert _file_hashes(out) == QUOTED_GOLDEN


def test_demo_golden_bundle(tmp_path):
    out = tmp_path / "out"
    args = ["run", str(DEMO_LEDGER), "--output", str(out), "--mode", "all",
            "--replicas", "8", "--seed", "5"]
    assert main(args) == 0
    census = json.loads((out / "triad_census.json").read_text())
    assert census["dag0"]["021U"] > 0
    assert _file_hashes(out) == DEMO_GOLDEN


def test_generate_golden_files(tmp_path):
    out = tmp_path / "out"
    assert main(["generate", "--output", str(out), *GENERATE_ARGS]) == 0
    assert _file_hashes(out) == GENERATE_GOLDEN
