"""Every command's output, pinned: one table of exit codes and digests.

``COMMANDS`` is a fixed list of command lines. They run in order,
in-process through ``cli.main``, in one scratch directory, and later lines
read what earlier ones wrote (an argument ``@name`` is the path ``name`` in
that directory). ``PINNED`` holds, per command, the exit code, the SHA-256
of stdout and the SHA-256 of every file it wrote:

- the trace files of a corpus are pinned as one digest of their names and
  digests, under ``<corpus>/traces/``;
- a policy checkpoint is hashed with each weight rounded to 1e-8
  (``oracles.rounded_checkpoint_digest``), since its last bits follow the
  BLAS build.

stderr is not pinned: its config echo names the scratch directory.

A change that moves an entry on purpose says so, with the old and the new
digests. ``python tests/test_pinned_outputs.py`` (with ``src`` on
``PYTHONPATH``) runs the commands and prints the table they give.
"""

import hashlib
import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from symderive.cli import main

from oracles import rounded_checkpoint_digest

# (variant, start, exact goal) of instances 0, 4, 8 and 10 of `gen --count 44 --seed 5`
DERIVE_INSTANCES = (
    (
        "plus_full",
        'Equal(Plus(Divide(Der(Sym("h")),Der(Sym("w"))),Times(Sym("q"),Sym("h"))),Num(3))',
        'Equal(Sym("h"),Divide(Minus(Num(3),Exp(Times(Sym("w"),Times(Num(-1),Sym("q"))))),Sym("q")))',
    ),
    (
        "minus_form",
        'Equal(Minus(Divide(Der(Sym("N")),Der(Sym("t"))),Times(Num(5),Sym("N"))),Sym("a"))',
        'Equal(Integral(Divide(Num(1),Plus(Sym("a"),Times(Num(5),Sym("N")))),Sym("N")),Sym("t"))',
    ),
    (
        "flipped",
        'Equal(Num(2),Divide(Der(Sym("u")),Der(Sym("r"))))',
        'Equal(Sym("u"),Integral(Num(2),Sym("r")))',
    ),
    (
        "premultiplied",
        'Equal(Der(Sym("u")),Times(Der(Sym("r")),Num(3)))',
        'Equal(Integral(Divide(Num(1),Num(3)),Sym("u")),Sym("r"))',
    ),
)

DERIVE_DRIVERS = (
    ("oracle", ["--oracle"]),
    ("oracle_first_site", ["--oracle", "--first-site"]),
    ("qtable_greedy", ["--qtable", "@q300.qtable"]),
    ("qtable_epsilon", ["--qtable", "@q300.qtable", "--mode", "epsilon", "--epsilon", "0.3", "--seed", "4"]),
    ("policy_greedy", ["--policy", "@p44.ckpt"]),
    ("policy_sample", ["--policy", "@p44.ckpt", "--mode", "sample", "--seed", "2"]),
    ("step_cap", ["--policy", "@p44.ckpt", "--step-cap", "2"]),
)

TWO_UNIT_INTEGRALS = 'Plus(Integral(Num(1),Sym("x")),Integral(Num(1),Sym("t")))'

COMMANDS: tuple[tuple[str, list[str]], ...] = (
    ("gen/c44", ["gen", "--out", "@c44", "--count", "44", "--seed", "5"]),
    ("gen/c300", ["gen", "--out", "@c300", "--count", "300", "--seed", "3"]),
    (
        "gen/wide",
        ["gen", "--out", "@wide", "--count", "220", "--seed", "7", "--max-degree", "6", "--coeff-low", "2",
         "--coeff-high", "9"],
    ),
    ("train/policy", ["train", "--corpus", "@c44", "--out", "@p44.ckpt", "--epochs", "1500", "--hidden", "32",
                      "--seed", "1"]),
    ("train/policy_defaults", ["train", "--corpus", "@c300", "--out", "@p300.ckpt", "--epochs", "200"]),
    ("train/q_traces", ["train", "--corpus", "@c300", "--out", "@q0.qtable", "--learner", "q", "--episodes", "0"]),
    ("train/q_online", ["train", "--corpus", "@c44", "--out", "@q300.qtable", "--learner", "q", "--episodes", "300"]),
    ("eval/policy", ["eval", "--corpus", "@c44", "--policy", "@p44.ckpt"]),
    ("eval/policy_rollouts", ["eval", "--corpus", "@c300", "--policy", "@p44.ckpt", "--split", "all", "--rollouts"]),
    ("eval/qtable_rollouts", ["eval", "--corpus", "@c44", "--qtable", "@q300.qtable", "--rollouts"]),
    ("eval/qtable_wide", ["eval", "--corpus", "@wide", "--qtable", "@q0.qtable", "--split", "train"]),
    *(
        (
            f"derive/{variant}/{driver}",
            ["derive", "--start", start, "--goal-exact", goal, *options, "--trace-out", f"@{variant}-{driver}.trace"],
        )
        for variant, start, goal in DERIVE_INSTANCES
        for driver, options in DERIVE_DRIVERS
    ),
    (
        "derive/goal_pattern",
        ["derive", "--start", DERIVE_INSTANCES[2][1], "--goal-pattern", 'Equal(Sym("u"),Integral(?,Sym("r")))',
         "--oracle", "--trace-out", "@pattern.trace"],
    ),
    ("parse", ["parse", "--formula", ' Plus( Sym("a") , Num(2) ) ']),
    ("encode", ["encode", "--formula", DERIVE_INSTANCES[0][1]]),
    ("encode/l_max", ["encode", "--formula", DERIVE_INSTANCES[0][1], "--l-max", "16"]),
    ("dist", ["dist", "--a", DERIVE_INSTANCES[0][1], "--b", DERIVE_INSTANCES[1][1]]),
    ("match/first", ["match", "--formula", TWO_UNIT_INTEGRALS, "--template", 'Integral(Num(1),Sym("a"))',
                     "--vars", "a"]),
    ("match/all", ["match", "--formula", TWO_UNIT_INTEGRALS, "--template", 'Integral(Num(1),Sym("a"))',
                   "--vars", "a", "--all"]),
    ("apply/first", ["apply", "--rule", "integral_of_unit", "--formula", TWO_UNIT_INTEGRALS]),
    ("apply/site", ["apply", "--rule", "integral_of_unit", "--formula", TWO_UNIT_INTEGRALS, "--site", "1"]),
    ("apply/nowhere", ["apply", "--rule", "swap_sides", "--formula", TWO_UNIT_INTEGRALS]),
)

PINNED: dict[str, tuple[int, str, dict[str, str]]] = {
    "gen/c44": (0, "b44e30fd8e9c28d66b3b518495ce184e03fee47a0c798f79ad04f477be967174", {
        "c44/instances.txt": "b8866a8a33ea24f6c732415088411f6b9e2722dd81e671defbedb1b25b91252b",
        "c44/seed.txt": "2cf283013749dfeaea713f2a12151ef81fd27cc317a6f5237af5dfee7774dc74",
        "c44/split.txt": "d0f288ccf66e5c885c0fc427c3b913d86564c41e6ea90cfaeef0e3a1fbcb901f",
        "c44/traces/": "1bb7b0a11111dac3bab46e0fe42f20a98f965121685398ac24b1367735dd62c0",
    }),
    "gen/c300": (0, "e539c11ebce949913c8f05eb5069ae3432ed58cfbb22a46138ed32076b924a4b", {
        "c300/instances.txt": "c262069b46872800a0225fe4fb02b2231895d47d83a59da02e03547d2396cc3a",
        "c300/seed.txt": "c437fab2cd2bae882f65aa6568f7d38bb960cd0daf8421557057b9fbddff6b19",
        "c300/split.txt": "df708834c6bc21b3e0560992a23166763f3bae7ab15f4a2ebeadc88a9a1f3ab3",
        "c300/traces/": "81d74ddb62bd7d1fbb59e4378ab2087926956230ce82ee406c078094f86f2b46",
    }),
    "gen/wide": (0, "9e82c7aeb83b1b3eab1437ab7d62d818995efd8ad47c5c45c3f5d26c38c27f61", {
        "wide/instances.txt": "04427e6e6c1126662ab904bca5f27c63e6f5a86ca5f6779ebd83ca0fafc6d61f",
        "wide/seed.txt": "534363b6010187d448099d828d693de455b24518925e2e56ad906b18c5d29374",
        "wide/split.txt": "10832a909954dbfc8c97778f1633c61fa4979233f27b988ebc3178212ce22e65",
        "wide/traces/": "a1e37f4cfa045ac809e0da7ce7f905782386e87e110b62e1d03074204da29407",
    }),
    "train/policy": (0, "857bbe4448c8c93e76ea7c3fcf093a24e8eaa0560011cc2623c65b97b6d8b456", {
        "p44.ckpt": "c02ea752b922147204db817c6d9cfbab21c4e033e3e7f7d37f0f0d473bafd211",
    }),
    "train/policy_defaults": (0, "fc022b99cd065e044accb3c0f76067073abc62f2ffa6f9512cf8f4c7b689b90d", {
        "p300.ckpt": "7da4107b53ac8b4ebd65544b8c953b208e6bb9af96f0502d29a787e53aa1fe11",
    }),
    "train/q_traces": (0, "3c138c4ded80b92a70d4581a2eccce29f076c54d47d96c5a6d8bffd65312b0c0", {
        "q0.qtable": "7e03eb49dd81690dfa6b46aa5ee9dbe7e6cf7f432222bb9b557bdd63c7bc310f",
    }),
    "train/q_online": (0, "6fabdb15a71f51cded20bd949b2b2c1c3c9f9bdf7202ff7b7d04e471219fd609", {
        "q300.qtable": "1d0e66247d0c2417c162c85d81169cc04dd986b3608a0752e7d5536b0802647b",
    }),
    "eval/policy": (0, "be90ab76f61338a9f790e78fbfda7373ab37e220cfe222667bdf08ff47c76d03", {}),
    "eval/policy_rollouts": (0, "ff2bfc52198ce3ec93cab1f45607b85df2aeca4739ab569a364daedeb394a03f", {}),
    "eval/qtable_rollouts": (0, "f696d546e4d013bf011cfd39ec568230c28403802bd0b607cea9957c49c18558", {}),
    "eval/qtable_wide": (0, "501a0382f7f84d6fd677e76e7bb6ae8d0468fe720dacfc2f6e4d69cdc0a815fd", {}),
    "derive/plus_full/oracle": (0, "de82bead80c093d3b950ecb43c63e64c646f7f4e4992c0b3c2de3706d1412e60", {
        "plus_full-oracle.trace": "930b36d0d74d2cedfca5d79a133febaefc3fefaf6cfd2650b4aa3a63a4d8eb9a",
    }),
    "derive/plus_full/oracle_first_site": (0, "de82bead80c093d3b950ecb43c63e64c646f7f4e4992c0b3c2de3706d1412e60", {
        "plus_full-oracle_first_site.trace": "930b36d0d74d2cedfca5d79a133febaefc3fefaf6cfd2650b4aa3a63a4d8eb9a",
    }),
    "derive/plus_full/qtable_greedy": (0, "dda832f40f12b069f762e6d273208f4fe041ebbbab86fafb072fd71d2c4f793c", {
        "plus_full-qtable_greedy.trace": "012eae2e6d755627c6429918f029186ef0abc940cea88ae53dbdf223bb14eea7",
    }),
    "derive/plus_full/qtable_epsilon": (2, "58c1f5b01aa6f7e6031e613630f56ccbf40bd2975a4c0e0ff51c5c71df3d7cb1", {
        "plus_full-qtable_epsilon.trace": "f6b7288615902290379d6a1e18a66bbdaeed51dc3417eac16b56b42128c8fb6e",
    }),
    "derive/plus_full/policy_greedy": (0, "de82bead80c093d3b950ecb43c63e64c646f7f4e4992c0b3c2de3706d1412e60", {
        "plus_full-policy_greedy.trace": "930b36d0d74d2cedfca5d79a133febaefc3fefaf6cfd2650b4aa3a63a4d8eb9a",
    }),
    "derive/plus_full/policy_sample": (0, "de82bead80c093d3b950ecb43c63e64c646f7f4e4992c0b3c2de3706d1412e60", {
        "plus_full-policy_sample.trace": "930b36d0d74d2cedfca5d79a133febaefc3fefaf6cfd2650b4aa3a63a4d8eb9a",
    }),
    "derive/plus_full/step_cap": (2, "bad5950a221daaf95bf484bfdb3d99e964b989a5f9873ce7058c13f6dd9d2e61", {
        "plus_full-step_cap.trace": "6583f36dfc4c59247c46f9f8a5df9bd74c780abb7ac2d5c3eb17164c998c69c5",
    }),
    "derive/minus_form/oracle": (0, "a36b75cd6bb4d203a9392b38c2bc5758c4aad27b1c4fc60b33c13abc5d984677", {
        "minus_form-oracle.trace": "2da49238b1e927bec367690b9556f3cb06311522084e052bcfcbd8b5e1af6639",
    }),
    "derive/minus_form/oracle_first_site": (0, "a36b75cd6bb4d203a9392b38c2bc5758c4aad27b1c4fc60b33c13abc5d984677", {
        "minus_form-oracle_first_site.trace": "2da49238b1e927bec367690b9556f3cb06311522084e052bcfcbd8b5e1af6639",
    }),
    "derive/minus_form/qtable_greedy": (0, "a36b75cd6bb4d203a9392b38c2bc5758c4aad27b1c4fc60b33c13abc5d984677", {
        "minus_form-qtable_greedy.trace": "2da49238b1e927bec367690b9556f3cb06311522084e052bcfcbd8b5e1af6639",
    }),
    "derive/minus_form/qtable_epsilon": (2, "2c4e4cd28b1612af2079378358982e5fe1f57b8501ab5c3273ad3b11e1069724", {
        "minus_form-qtable_epsilon.trace": "94ef9655bc5cc6550f421236549fee60341fb36b44f3cc07f59f107eddb0f3b5",
    }),
    "derive/minus_form/policy_greedy": (0, "a36b75cd6bb4d203a9392b38c2bc5758c4aad27b1c4fc60b33c13abc5d984677", {
        "minus_form-policy_greedy.trace": "2da49238b1e927bec367690b9556f3cb06311522084e052bcfcbd8b5e1af6639",
    }),
    "derive/minus_form/policy_sample": (0, "a36b75cd6bb4d203a9392b38c2bc5758c4aad27b1c4fc60b33c13abc5d984677", {
        "minus_form-policy_sample.trace": "2da49238b1e927bec367690b9556f3cb06311522084e052bcfcbd8b5e1af6639",
    }),
    "derive/minus_form/step_cap": (2, "679b5cab84d014d036ca05265d66a4aaed8aa4019271beb6f4a516360a3c0991", {
        "minus_form-step_cap.trace": "a2ac89111bcefa67f02de96bc9b99436a43dd3a0cec6f59d28c7f3af8bca17ec",
    }),
    "derive/flipped/oracle": (0, "feb2e5d40fe9f448988c75e827aaafb9505ce07b3694a5a037656745436b04e3", {
        "flipped-oracle.trace": "e430d3e4eba0503bdafaf2d7dbfc7d34af258b05480583d7eacf63d5723e134d",
    }),
    "derive/flipped/oracle_first_site": (0, "feb2e5d40fe9f448988c75e827aaafb9505ce07b3694a5a037656745436b04e3", {
        "flipped-oracle_first_site.trace": "e430d3e4eba0503bdafaf2d7dbfc7d34af258b05480583d7eacf63d5723e134d",
    }),
    "derive/flipped/qtable_greedy": (0, "feb2e5d40fe9f448988c75e827aaafb9505ce07b3694a5a037656745436b04e3", {
        "flipped-qtable_greedy.trace": "e430d3e4eba0503bdafaf2d7dbfc7d34af258b05480583d7eacf63d5723e134d",
    }),
    "derive/flipped/qtable_epsilon": (0, "feb2e5d40fe9f448988c75e827aaafb9505ce07b3694a5a037656745436b04e3", {
        "flipped-qtable_epsilon.trace": "e430d3e4eba0503bdafaf2d7dbfc7d34af258b05480583d7eacf63d5723e134d",
    }),
    "derive/flipped/policy_greedy": (0, "feb2e5d40fe9f448988c75e827aaafb9505ce07b3694a5a037656745436b04e3", {
        "flipped-policy_greedy.trace": "e430d3e4eba0503bdafaf2d7dbfc7d34af258b05480583d7eacf63d5723e134d",
    }),
    "derive/flipped/policy_sample": (0, "feb2e5d40fe9f448988c75e827aaafb9505ce07b3694a5a037656745436b04e3", {
        "flipped-policy_sample.trace": "e430d3e4eba0503bdafaf2d7dbfc7d34af258b05480583d7eacf63d5723e134d",
    }),
    "derive/flipped/step_cap": (2, "d3c604f95f5d95916354e95dbda94df3f2061d2b6b4e9b91f4e2635e2a7fc871", {
        "flipped-step_cap.trace": "bf12391a481bbd3e2b4a9550989784cd0f9c5ba11074d69d94e2e06b4fde57a8",
    }),
    "derive/premultiplied/oracle": (0, "bc84f48a20990b36b342fca374511c488dc5fa2b2bed96b7227afe0fc00a7a77", {
        "premultiplied-oracle.trace": "99c5323d0e3d7c11e81cdcd2f82f6d37cb1325461fa95354dec02c8d7e669791",
    }),
    "derive/premultiplied/oracle_first_site": (0, "bc84f48a20990b36b342fca374511c488dc5fa2b2bed96b7227afe0fc00a7a77", {
        "premultiplied-oracle_first_site.trace": "99c5323d0e3d7c11e81cdcd2f82f6d37cb1325461fa95354dec02c8d7e669791",
    }),
    "derive/premultiplied/qtable_greedy": (0, "bc84f48a20990b36b342fca374511c488dc5fa2b2bed96b7227afe0fc00a7a77", {
        "premultiplied-qtable_greedy.trace": "99c5323d0e3d7c11e81cdcd2f82f6d37cb1325461fa95354dec02c8d7e669791",
    }),
    "derive/premultiplied/qtable_epsilon": (2, "347145bdb34417019446c7211c61ad09ffa1dc11b5b0d58a8b2b441f93284b1f", {
        "premultiplied-qtable_epsilon.trace": "93800444b99be501ae4661e3414807d7281ea7b014a771cbb0af9767d22b8bd4",
    }),
    "derive/premultiplied/policy_greedy": (0, "bc84f48a20990b36b342fca374511c488dc5fa2b2bed96b7227afe0fc00a7a77", {
        "premultiplied-policy_greedy.trace": "99c5323d0e3d7c11e81cdcd2f82f6d37cb1325461fa95354dec02c8d7e669791",
    }),
    "derive/premultiplied/policy_sample": (0, "bc84f48a20990b36b342fca374511c488dc5fa2b2bed96b7227afe0fc00a7a77", {
        "premultiplied-policy_sample.trace": "99c5323d0e3d7c11e81cdcd2f82f6d37cb1325461fa95354dec02c8d7e669791",
    }),
    "derive/premultiplied/step_cap": (2, "e77f3cc732cb55b46bbd1df5a72384e7db6a7595723a245ae0168b8c93f9184a", {
        "premultiplied-step_cap.trace": "29cc4953ab41d9f49ca8d3155d14855cf6cb1748315bfe4f61eb7783f92b874f",
    }),
    "derive/goal_pattern": (0, "feb2e5d40fe9f448988c75e827aaafb9505ce07b3694a5a037656745436b04e3", {
        "pattern.trace": "5b5156e6cae8943d6cbfd664a26be9adecc44465850da149552c791971ab70ca",
    }),
    "parse": (0, "b21ee3ca7f2691171d910e97613a55b60cd87fb265ca8684954f6bf6483fdfc8", {}),
    "encode": (0, "b2d3b0a5a4304eb6c8f96693e89026c13a585f35ac4a3164fd982d99859d9826", {}),
    "encode/l_max": (0, "b86757c802aad077a4210f57e270c70c0a45bb98b84cc26e18b367282b177b44", {}),
    "dist": (0, "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3", {}),
    "match/first": (0, "45dce876b970c5d435513136328f7e46cfcbe12d95fb0adb12b1c3d2dd2b2ca6", {}),
    "match/all": (0, "059375ac01ae87fb121736337c3455a61a08feed857fdc7d71edb062b7416f8e", {}),
    "apply/first": (0, "8d3f626738bbeae19a8515bfc2d34d4f41a245f6e05db09b6bddfaf8d0fa5bc3", {}),
    "apply/site": (0, "81731e8a8b4a1dbae677ccd30a942429d840a337dc8df3e6a0d9e8127ca86cc8", {}),
    "apply/nowhere": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {}),
}


def _file_digest(path):
    if path.endswith(".ckpt"):
        return rounded_checkpoint_digest(path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _files(root):
    return {
        os.path.relpath(os.path.join(folder, name), root)
        for folder, _, names in os.walk(root)
        for name in names
    }


def _written(root, paths):
    """Digest per written file, a corpus's trace files folded into one."""
    out = {}
    traces = {}
    for rel in sorted(paths):
        digest = _file_digest(os.path.join(root, rel))
        folder, name = os.path.split(rel)
        if os.path.basename(folder) == "traces":
            traces.setdefault(folder + "/", []).append(f"{name} {digest}\n")
        else:
            out[rel] = digest
    for folder, lines in traces.items():
        out[folder] = hashlib.sha256("".join(lines).encode()).hexdigest()
    return out


def run_commands(root):
    """Run COMMANDS in order in ``root``: name -> (exit code, stdout digest,
    written files' digests)."""
    results = {}
    for name, argv in COMMANDS:
        argv = [os.path.join(root, arg[1:]) if arg.startswith("@") else arg for arg in argv]
        before = _files(root)
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = main(argv)
        digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        results[name] = (code, digest, _written(root, _files(root) - before))
    return results


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return run_commands(str(tmp_path_factory.mktemp("pinned")))


def test_every_command_is_pinned():
    assert list(PINNED) == [name for name, _ in COMMANDS]


@pytest.mark.parametrize("name", [name for name, _ in COMMANDS])
def test_output_is_pinned(observed, name):
    assert observed[name] == PINNED[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        table = run_commands(root)
    print("PINNED: dict[str, tuple[int, str, dict[str, str]]] = {")
    for name, (code, digest, written) in table.items():
        if not written:
            print(f'    "{name}": ({code}, "{digest}", {{}}),')
            continue
        print(f'    "{name}": ({code}, "{digest}", {{')
        for rel, file_digest in written.items():
            print(f'        "{rel}": "{file_digest}",')
        print("    }),")
    print("}")
