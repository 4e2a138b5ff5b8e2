"""Golden digests of `reproduce --both` artifacts.

The in-process experiment is deterministic, so a refactor that keeps
behaviour must leave stdout and every written file byte-identical. The
digests below were recorded from the tree before the page behaviours moved
onto their dataclasses. The cases for `--key-mode fuzzy`, `--limiter`,
`--injection missing_only` and `--injection status_404_only --patch ia` were
recorded later, from the tree before `run-workload` lost its in-process path
and the proxy stopped stamping 429 and 5xx answers. A change that alters any
artifact on purpose must say why and record new digests.
"""

from __future__ import annotations

import hashlib

import pytest

from replay_shield.cli import EXIT_OK, main

# (scenario, extra flags) -> {artifact name: sha256}; "stdout" is the printed summary
GOLDEN = {
    ("mre", ()): {
        "stdout": "c642ec790036e9bc81c3819691c2b219784098f9d8d0d52f32fa7d4111dcb9c0",
        "events_after.csv": "78c99702b8fa63001d51a606af42e90bc7bb6b7325522a1858b628e928093cfa",
        "events_before.csv": "4d8bc04c6c7752d67dffd52c5d207476e0fc2019935eac21f970e5acae1ade54",
        "metrics.txt": "37f6af36f0fe4dc78e1e78e864be7286679ec671f55c22d04a6756bc6312b272",
        "series_after.csv": "66c34a8802719ad25f12786a6470d0a525449c1da2c4b46cbc98ce937e3de878",
        "series_before.csv": "45a39b3fe789958609c3664615898510f01128dcddb8609a919605ec9623cd7e",
        "summary.txt": "c642ec790036e9bc81c3819691c2b219784098f9d8d0d52f32fa7d4111dcb9c0",
    },
    ("mre", ("--patch", "ia")): {
        "stdout": "670908454e0eecf98e004487e39288db3536921a505932ab4c9860b6634d1144",
        "events_after.csv": "ec0f703c210ebbbe76fca7331b090928fcec52cd7cf056bbd710d67772ac838d",
        "events_before.csv": "e7f0c92f29742e9246de0b9009386781f17863ad0cb02dd1d814fcdcb5e86078",
        "metrics.txt": "a6adb1731b260f13c194388fab14393565b6a929fe09291144b979bae3469b98",
        "series_after.csv": "8b3fd2c67445bd7a9d96ab579f7a1db8a126b11ba85d578d79c5e4b0d102a7ba",
        "series_before.csv": "9d00bbe7684a3eb6886ffe0f4009a306c2591d968b243970e1accfdea3f86a88",
        "summary.txt": "670908454e0eecf98e004487e39288db3536921a505932ab4c9860b6634d1144",
    },
    ("carousel12", ()): {
        "stdout": "e5142aa4dfd3030b75b3ac41ab2258f24523092447c3c90b15040afaa34d487a",
        "events_after.csv": "f7f83f5fa52eae0658859abacebe47066e15cf02bd9bf6fbefda17628135de5b",
        "events_before.csv": "bf9c130db715f20bd33e566402efeaa5db0e7726afb5291a38e5deeafd2e699e",
        "metrics.txt": "8d9430046fbb694d35d856a0ff2cc3e3ec0382e9378505c05bdbd88617ba8c79",
        "series_after.csv": "3c3877e23fe66075902e817761682d4571fa73b2e84e1b4cd5c407692c5b788f",
        "series_before.csv": "ca09494dfcf5e22d09aef1e0c3f20d99c2854809576a710b97c4534f1c05f503",
        "summary.txt": "e5142aa4dfd3030b75b3ac41ab2258f24523092447c3c90b15040afaa34d487a",
    },
    ("carousel12", ("--patch", "ia")): {
        "stdout": "5241c04a590f27f2ec46fff7cdd9cbfbfab3301facbe81add54f04b8b03cbd4a",
        "events_after.csv": "7d95eef66ce7c2a4b7f74d64ed2c5e30fbfac19081826db0dd66ba8a7382d199",
        "events_before.csv": "3061ecbd0c50ca047f77f1240f10d3da97ff18cb738b0e688287b2ce7787fbd3",
        "metrics.txt": "c1e2a489f300354a74ae228c9f24b84abb2a054bcb0443942a1acbd91155bbce",
        "series_after.csv": "97e4d118c9c5a86ed299ef03002b5d3e8a4c481336105faf54f756d2ee0657f0",
        "series_before.csv": "bb01c696445620083d304129d03efe53be617e6d283fb0c5f775b17344357ef3",
        "summary.txt": "5241c04a590f27f2ec46fff7cdd9cbfbfab3301facbe81add54f04b8b03cbd4a",
    },
    ("onerror_playlist", ()): {
        "stdout": "1d008c313e0664c149cb37448094461b6e5e6e36a6962f785dc992550026223d",
        "events_after.csv": "0bc2821e380c1748d628bca487df89ff17b6a534c4a67fd9901bf3a52e279988",
        "events_before.csv": "0c8453f32f6a5690efd26c959e03dc78e207e662d7cbbc76416205a0350ec972",
        "metrics.txt": "33b513c0cc06eb50c960d518c399e311ba9c7b18f340d18852c4719a62f4cd07",
        "series_after.csv": "45fc6da7d56207bbaed6343be78622f00e28b016576f656b2ed4cee3830a6b20",
        "series_before.csv": "5d929c0e9a3f513655cf9d294b4a29820b0c8893b343050d795e09cf59cf8c51",
        "summary.txt": "1d008c313e0664c149cb37448094461b6e5e6e36a6962f785dc992550026223d",
    },
    ("onerror_playlist", ("--patch", "ia")): {
        "stdout": "883a981b35abee6275a928e4cafe451578bb474680f67634edd0131f67384325",
        "events_after.csv": "42e0efcc42664535ccaf57575cf48bfa6784e682d48793ee182629722e5577ff",
        "events_before.csv": "4b51771b99e42a9b242402dbe3b502f72a443a58d49a29effdaa927e6ae6bc88",
        "metrics.txt": "44d07564e9bdc3938381573882c864a1aed5e7500ac18ac97c2589ae1d42237e",
        "series_after.csv": "8f5148c223f2f8bbf26caa1c92d1a1093f6a0a23171521f20458665ac4ab61c0",
        "series_before.csv": "823edcc4f9e44e7be2c754fd5d2391db5e17f6edad0e1d68e5b031f67e30eea6",
        "summary.txt": "883a981b35abee6275a928e4cafe451578bb474680f67634edd0131f67384325",
    },
    ("feed_poll", ()): {
        "stdout": "3883df13617acbe0b9a3183a9dcc58c347cfde27eadb1853b175e84b44c90fbf",
        "events_after.csv": "79df15a0d56b1c644c69c78c11074ef4c329c07c699e530c98d33a251637a76b",
        "events_before.csv": "a216044f094ae69655d85f8076dfd5366f23cfd43287c402ccc3d2c5e0d2a436",
        "metrics.txt": "db9e041a92f4e0be3140d3eda3f955dc0b8c2a70bab6b6c77337b4acb033ef7e",
        "series_after.csv": "cfcd403a1cc8702fa45dbddcbc39c7c49dfa115333b487dbe22cd1c9ba7f7a86",
        "series_before.csv": "564b316a161f6b5b52d28fc32cabc100aa233d627585ae89f796e7c5b4355aa6",
        "summary.txt": "3883df13617acbe0b9a3183a9dcc58c347cfde27eadb1853b175e84b44c90fbf",
    },
    ("feed_poll", ("--patch", "ia")): {
        "stdout": "7bc43d0716febca25858018152e0e1b870db50c6e781578bb62752d82e7b74b1",
        "events_after.csv": "180b1df767407cf828dd16e54c0d7f71ee6ee3656e334a733fa6937ff7a26168",
        "events_before.csv": "ebf2bf16794ad8a3e50a3938edafc6a7d44ba3abbd5551c6e8956c6d05a27f3d",
        "metrics.txt": "9c7008558d8b781840e3a01ff4a5333efff203872d0fe1b621b1379b3c893a2c",
        "series_after.csv": "29fbf5af6f755046124ff3822dff45c5b8582ba93bb3e5d33053dbccc91978fb",
        "series_before.csv": "a183413c283c804c9af5d10645a8774f0379209c460130cf57d247f655fc1bab",
        "summary.txt": "7bc43d0716febca25858018152e0e1b870db50c6e781578bb62752d82e7b74b1",
    },
    ("mre", ("--key-mode", "fuzzy")): {
        "stdout": "c642ec790036e9bc81c3819691c2b219784098f9d8d0d52f32fa7d4111dcb9c0",
        "events_after.csv": "78c99702b8fa63001d51a606af42e90bc7bb6b7325522a1858b628e928093cfa",
        "events_before.csv": "4d8bc04c6c7752d67dffd52c5d207476e0fc2019935eac21f970e5acae1ade54",
        "metrics.txt": "37f6af36f0fe4dc78e1e78e864be7286679ec671f55c22d04a6756bc6312b272",
        "series_after.csv": "66c34a8802719ad25f12786a6470d0a525449c1da2c4b46cbc98ce937e3de878",
        "series_before.csv": "45a39b3fe789958609c3664615898510f01128dcddb8609a919605ec9623cd7e",
        "summary.txt": "c642ec790036e9bc81c3819691c2b219784098f9d8d0d52f32fa7d4111dcb9c0",
    },
    ("mre", ("--limiter",)): {
        "stdout": "3270badba931d6452830cde9e8aba01c98bc23c62ff7ae935739599e10491207",
        "events_after.csv": "78c99702b8fa63001d51a606af42e90bc7bb6b7325522a1858b628e928093cfa",
        "events_before.csv": "4b5048f8f7013633858597ac9f78e7f23e1211570a1fcd55c3ba22562e994ed2",
        "metrics.txt": "05f305fdd88d2c5c64239c6bb50e9c7b6f16bfd8281df49ba252cee2ec7488e6",
        "series_after.csv": "66c34a8802719ad25f12786a6470d0a525449c1da2c4b46cbc98ce937e3de878",
        "series_before.csv": "5b3fb914f5a8d1f0b2cb5403d8a1df824fbcce8892199e9a739bcc246961063e",
        "summary.txt": "3270badba931d6452830cde9e8aba01c98bc23c62ff7ae935739599e10491207",
    },
    ("mre", ("--injection", "missing_only")): {
        "stdout": "c642ec790036e9bc81c3819691c2b219784098f9d8d0d52f32fa7d4111dcb9c0",
        "events_after.csv": "78c99702b8fa63001d51a606af42e90bc7bb6b7325522a1858b628e928093cfa",
        "events_before.csv": "4d8bc04c6c7752d67dffd52c5d207476e0fc2019935eac21f970e5acae1ade54",
        "metrics.txt": "37f6af36f0fe4dc78e1e78e864be7286679ec671f55c22d04a6756bc6312b272",
        "series_after.csv": "66c34a8802719ad25f12786a6470d0a525449c1da2c4b46cbc98ce937e3de878",
        "series_before.csv": "45a39b3fe789958609c3664615898510f01128dcddb8609a919605ec9623cd7e",
        "summary.txt": "c642ec790036e9bc81c3819691c2b219784098f9d8d0d52f32fa7d4111dcb9c0",
    },
    ("mre", ("--injection", "status_404_only", "--patch", "ia")): {
        "stdout": "e1c8be6b98b179f54d53f16f7fdf4d620842d2e1059c82096ec1d0d9c77b8e2e",
        "events_after.csv": "6866dc225c25ad3c4c10fc1a3dd9d7ba8983ff461c3e497d0167c54df9cfd826",
        "events_before.csv": "e7f0c92f29742e9246de0b9009386781f17863ad0cb02dd1d814fcdcb5e86078",
        "metrics.txt": "e81c2fa10b9b08b0ed430b4ccfb7a4d50c0bba75b756bc7e0c7f1f0d556e1702",
        "series_after.csv": "20e00f5e144e42a8631b9e6ee4054fcba34445d4b4d544aef73cad2a29f7620a",
        "series_before.csv": "9d00bbe7684a3eb6886ffe0f4009a306c2591d968b243970e1accfdea3f86a88",
        "summary.txt": "e1c8be6b98b179f54d53f16f7fdf4d620842d2e1059c82096ec1d0d9c77b8e2e",
    },
    ("carousel12", ("--key-mode", "fuzzy")): {
        "stdout": "e5142aa4dfd3030b75b3ac41ab2258f24523092447c3c90b15040afaa34d487a",
        "events_after.csv": "f7f83f5fa52eae0658859abacebe47066e15cf02bd9bf6fbefda17628135de5b",
        "events_before.csv": "bf9c130db715f20bd33e566402efeaa5db0e7726afb5291a38e5deeafd2e699e",
        "metrics.txt": "8d9430046fbb694d35d856a0ff2cc3e3ec0382e9378505c05bdbd88617ba8c79",
        "series_after.csv": "3c3877e23fe66075902e817761682d4571fa73b2e84e1b4cd5c407692c5b788f",
        "series_before.csv": "ca09494dfcf5e22d09aef1e0c3f20d99c2854809576a710b97c4534f1c05f503",
        "summary.txt": "e5142aa4dfd3030b75b3ac41ab2258f24523092447c3c90b15040afaa34d487a",
    },
    ("carousel12", ("--limiter",)): {
        "stdout": "8897707f9b7b3409116ac0e7b92d3c4f0523492be6cb9d9c67d90e666ed1e9f6",
        "events_after.csv": "f7f83f5fa52eae0658859abacebe47066e15cf02bd9bf6fbefda17628135de5b",
        "events_before.csv": "fe1ef4bf3dcb5a7791c36668d740eb4cc6b60c3181ae26b8d32d85db846a2e3e",
        "metrics.txt": "6379cd88a0339565906586fe39dca7d49963ca1c427ef19ada67f0632234c4a6",
        "series_after.csv": "3c3877e23fe66075902e817761682d4571fa73b2e84e1b4cd5c407692c5b788f",
        "series_before.csv": "131035154be8d5086fffbcd18b2e7fb5c2f8e764b618239e59b934f1be0dae35",
        "summary.txt": "8897707f9b7b3409116ac0e7b92d3c4f0523492be6cb9d9c67d90e666ed1e9f6",
    },
    ("carousel12", ("--injection", "missing_only")): {
        "stdout": "e5142aa4dfd3030b75b3ac41ab2258f24523092447c3c90b15040afaa34d487a",
        "events_after.csv": "f7f83f5fa52eae0658859abacebe47066e15cf02bd9bf6fbefda17628135de5b",
        "events_before.csv": "bf9c130db715f20bd33e566402efeaa5db0e7726afb5291a38e5deeafd2e699e",
        "metrics.txt": "8d9430046fbb694d35d856a0ff2cc3e3ec0382e9378505c05bdbd88617ba8c79",
        "series_after.csv": "3c3877e23fe66075902e817761682d4571fa73b2e84e1b4cd5c407692c5b788f",
        "series_before.csv": "ca09494dfcf5e22d09aef1e0c3f20d99c2854809576a710b97c4534f1c05f503",
        "summary.txt": "e5142aa4dfd3030b75b3ac41ab2258f24523092447c3c90b15040afaa34d487a",
    },
    ("carousel12", ("--injection", "status_404_only", "--patch", "ia")): {
        "stdout": "7005f6598ad6ad7e07c02ec3c6e75f88f5fd78485222ab312a3c12f956b12727",
        "events_after.csv": "d71cfb58b5a42ea8cbba712092e1072ab39e669ccb001457511051d6f48c92d1",
        "events_before.csv": "3061ecbd0c50ca047f77f1240f10d3da97ff18cb738b0e688287b2ce7787fbd3",
        "metrics.txt": "b5b2bb0b3965a9ed813abacf1a9639b1e9fca3fd21cb33a27168d8adfff0a0b4",
        "series_after.csv": "411fc09595d3d53d462759ecdc04ecd55f62a87c8b320b17b3ea86d942d11f75",
        "series_before.csv": "bb01c696445620083d304129d03efe53be617e6d283fb0c5f775b17344357ef3",
        "summary.txt": "7005f6598ad6ad7e07c02ec3c6e75f88f5fd78485222ab312a3c12f956b12727",
    },
    ("onerror_playlist", ("--key-mode", "fuzzy")): {
        "stdout": "1d008c313e0664c149cb37448094461b6e5e6e36a6962f785dc992550026223d",
        "events_after.csv": "0bc2821e380c1748d628bca487df89ff17b6a534c4a67fd9901bf3a52e279988",
        "events_before.csv": "0c8453f32f6a5690efd26c959e03dc78e207e662d7cbbc76416205a0350ec972",
        "metrics.txt": "33b513c0cc06eb50c960d518c399e311ba9c7b18f340d18852c4719a62f4cd07",
        "series_after.csv": "45fc6da7d56207bbaed6343be78622f00e28b016576f656b2ed4cee3830a6b20",
        "series_before.csv": "5d929c0e9a3f513655cf9d294b4a29820b0c8893b343050d795e09cf59cf8c51",
        "summary.txt": "1d008c313e0664c149cb37448094461b6e5e6e36a6962f785dc992550026223d",
    },
    ("onerror_playlist", ("--limiter",)): {
        "stdout": "05614c8ff104cde39de359d4355dc74d339e7c8bcaa53a59a68d9ce6d1b06837",
        "events_after.csv": "0bc2821e380c1748d628bca487df89ff17b6a534c4a67fd9901bf3a52e279988",
        "events_before.csv": "04f161b8845ad2752521778f752c32c7bf4a78875ba7c38cd968a601b6b4d2a2",
        "metrics.txt": "171eb5f72185d84bb8b36142b6c6ef4c58064fdaa99b617c4c53011df866cd87",
        "series_after.csv": "45fc6da7d56207bbaed6343be78622f00e28b016576f656b2ed4cee3830a6b20",
        "series_before.csv": "54d54484552dc93d6ba0d296c8a8cbd6de77924244040a26f9efbe9d7ae082d8",
        "summary.txt": "05614c8ff104cde39de359d4355dc74d339e7c8bcaa53a59a68d9ce6d1b06837",
    },
    ("onerror_playlist", ("--injection", "missing_only")): {
        "stdout": "1d008c313e0664c149cb37448094461b6e5e6e36a6962f785dc992550026223d",
        "events_after.csv": "0bc2821e380c1748d628bca487df89ff17b6a534c4a67fd9901bf3a52e279988",
        "events_before.csv": "0c8453f32f6a5690efd26c959e03dc78e207e662d7cbbc76416205a0350ec972",
        "metrics.txt": "33b513c0cc06eb50c960d518c399e311ba9c7b18f340d18852c4719a62f4cd07",
        "series_after.csv": "45fc6da7d56207bbaed6343be78622f00e28b016576f656b2ed4cee3830a6b20",
        "series_before.csv": "5d929c0e9a3f513655cf9d294b4a29820b0c8893b343050d795e09cf59cf8c51",
        "summary.txt": "1d008c313e0664c149cb37448094461b6e5e6e36a6962f785dc992550026223d",
    },
    ("onerror_playlist", ("--injection", "status_404_only", "--patch", "ia")): {
        "stdout": "c5ca6f7c22aa9e96370b4ae719e27789bee2714022514a334cb0414f6150ae03",
        "events_after.csv": "45c0b8ddc0f9ffa5ab8f5be7c3d33c9ec0d7bbf2d73502551383d93d0aff319a",
        "events_before.csv": "4b51771b99e42a9b242402dbe3b502f72a443a58d49a29effdaa927e6ae6bc88",
        "metrics.txt": "b9b3d767bb3ae5e6590b42bc9282aa145f5988b5fd936a57433121f623fef650",
        "series_after.csv": "df77cb27d9a3e57842e56b1836bf7e1ec8c39c67ca824f131c55929877fb901e",
        "series_before.csv": "823edcc4f9e44e7be2c754fd5d2391db5e17f6edad0e1d68e5b031f67e30eea6",
        "summary.txt": "c5ca6f7c22aa9e96370b4ae719e27789bee2714022514a334cb0414f6150ae03",
    },
    ("feed_poll", ("--key-mode", "fuzzy")): {
        "stdout": "3883df13617acbe0b9a3183a9dcc58c347cfde27eadb1853b175e84b44c90fbf",
        "events_after.csv": "79df15a0d56b1c644c69c78c11074ef4c329c07c699e530c98d33a251637a76b",
        "events_before.csv": "a216044f094ae69655d85f8076dfd5366f23cfd43287c402ccc3d2c5e0d2a436",
        "metrics.txt": "db9e041a92f4e0be3140d3eda3f955dc0b8c2a70bab6b6c77337b4acb033ef7e",
        "series_after.csv": "cfcd403a1cc8702fa45dbddcbc39c7c49dfa115333b487dbe22cd1c9ba7f7a86",
        "series_before.csv": "564b316a161f6b5b52d28fc32cabc100aa233d627585ae89f796e7c5b4355aa6",
        "summary.txt": "3883df13617acbe0b9a3183a9dcc58c347cfde27eadb1853b175e84b44c90fbf",
    },
    ("feed_poll", ("--limiter",)): {
        "stdout": "30a612f86de66afb70e7e40b8450cdf2965f3d4ab528ba3155fe395952fe8759",
        "events_after.csv": "79df15a0d56b1c644c69c78c11074ef4c329c07c699e530c98d33a251637a76b",
        "events_before.csv": "3629bbc9aa6f2bf8d997d2cd40b6d9a6bd8edadb4450b7c5c87f1e77c6bfa4dd",
        "metrics.txt": "a282f51db8281354ca40d5fb019faf89e7166365a60aa7d74db3e7021f0cbbdd",
        "series_after.csv": "cfcd403a1cc8702fa45dbddcbc39c7c49dfa115333b487dbe22cd1c9ba7f7a86",
        "series_before.csv": "dc05bf987cd1ebec196de15f9f033a16a5aed53752cf7a51c003cfb66d82459c",
        "summary.txt": "30a612f86de66afb70e7e40b8450cdf2965f3d4ab528ba3155fe395952fe8759",
    },
    ("feed_poll", ("--injection", "missing_only")): {
        "stdout": "3883df13617acbe0b9a3183a9dcc58c347cfde27eadb1853b175e84b44c90fbf",
        "events_after.csv": "79df15a0d56b1c644c69c78c11074ef4c329c07c699e530c98d33a251637a76b",
        "events_before.csv": "a216044f094ae69655d85f8076dfd5366f23cfd43287c402ccc3d2c5e0d2a436",
        "metrics.txt": "db9e041a92f4e0be3140d3eda3f955dc0b8c2a70bab6b6c77337b4acb033ef7e",
        "series_after.csv": "cfcd403a1cc8702fa45dbddcbc39c7c49dfa115333b487dbe22cd1c9ba7f7a86",
        "series_before.csv": "564b316a161f6b5b52d28fc32cabc100aa233d627585ae89f796e7c5b4355aa6",
        "summary.txt": "3883df13617acbe0b9a3183a9dcc58c347cfde27eadb1853b175e84b44c90fbf",
    },
    ("feed_poll", ("--injection", "status_404_only", "--patch", "ia")): {
        "stdout": "a8692602e6be1b36b361f4870de4d00603651a1e675e2114d1d8c1a539776675",
        "events_after.csv": "12f7a464b02d5d3ceffeb2f3a9096cae39f06b780d1321d2fe1c826a21dd183a",
        "events_before.csv": "ebf2bf16794ad8a3e50a3938edafc6a7d44ba3abbd5551c6e8956c6d05a27f3d",
        "metrics.txt": "ba0f0226262acb14a1ada5fb43d9205a6b025fb966b4ad330bbbd4aef936f516",
        "series_after.csv": "4615ba8c59ef05a8b6afbb378e8862920d766960ad9f2e377fbb6b2d5790561d",
        "series_before.csv": "a183413c283c804c9af5d10645a8774f0379209c460130cf57d247f655fc1bab",
        "summary.txt": "a8692602e6be1b36b361f4870de4d00603651a1e675e2114d1d8c1a539776675",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(("scenario", "flags"), list(GOLDEN), ids=[" ".join((s,) + f) for s, f in GOLDEN])
def test_reproduce_artifacts_match_golden(tmp_path, capsys, scenario, flags):
    argv = ["--output", str(tmp_path), "reproduce", "--both", "--duration", "300", "--scenario", scenario, *flags]
    assert main(argv) == EXIT_OK
    digests = {"stdout": _sha256(capsys.readouterr().out.encode("utf-8"))}
    digests.update({p.name: _sha256(p.read_bytes()) for p in sorted(tmp_path.iterdir())})
    assert digests == GOLDEN[(scenario, flags)]
