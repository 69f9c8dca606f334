#!/usr/bin/env python3
"""Check that every public value of lib/ has a caller outside the tests.

For each top-level `val` in lib/**/*.mli, and each `val` of a top-level
`module X : sig ... end` block, count the references to it in the .ml files
of lib/, bin/, bench/, examples/ and perfbench/, leaving out the value's own
.ml. A reference to `M.v` is

  * a qualified name `M.v`, also under a longer path (`Hopi_util.M.v`);
  * `A.v` where `module A = ...M` aliases the module in any scanned file;
  * a bare `v` after `open M` / `let open M in` (to the end of the file) or
    inside a local open `M.( ... )`.

A reference to `M.X.v` is `M.X.v` (or `A.X.v` for an alias `A` of `M`), `B.v`
where `module B = ...M.X`, `X.v` where `M` is open, or a bare `v` where
`M.X` is open.

Comments, strings and character literals are blanked out before matching.

A value with no caller fails the check unless ALLOW names it with a reason;
an ALLOW entry for a value that is gone or has a caller fails it too, so the
list stays exact.

Usage: python3 scripts/api_callers.py [--verbose]
(--verbose lists every value with its callers)
Exits 0 when every value has a caller or an allowlist entry, 1 otherwise.
"""

import os
import re
import sys

CALLER_DIRS = ["lib", "bin", "bench", "examples", "perfbench"]

# Values that only tests call but that stay: differential oracles, harness
# entry points, the raw protocol access of the robustness tests, the LRU
# model test's non-promoting read and a read pool's own statistics.
ALLOW = {
    "Cover.in_labelled_with": "oracle of the by-center store differential",
    "Cover.out_labelled_with": "oracle of the by-center store differential",
    "Closure.mem": "reachability oracle of the closure, cover and shard tests",
    "Closure.preds": "ancestor oracle of the graph, serve and shard tests",
    "Partitioning.check": "oracle of the partition invariants in the partitioner tests",
    "Hopi.rebuild": "builds the offline twin of the live-vs-offline differential",
    "Generation.apply_to_index": "replays churn on the offline twin of the live-vs-offline differential",
    "Client.send_raw": "raw frames for the protocol robustness tests",
    "Client.read_reply": "reads the replies to raw frames in the protocol robustness tests",
    "Crc32.update": "the running form of digest, whose composition over split buffers the CRC kernel tests check",
    "Lru.peek": "reads every resident entry without promotion in the LRU model test",
    "Pager.Read_pool.stats": "one shared pool's own numbers in the cold-path tests (Pager.stats reads them within pager.ml)",
}

IDENT = r"[a-z_][A-Za-z0-9_']*"


def strip(src):
    """Blank out comments, string literals and char literals, keeping offsets
    (every removed character becomes a space, newlines are kept)."""
    out = list(src)
    n = len(src)
    i = 0
    depth = 0

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    def skip_string(j):
        # j at the opening quote; returns the index after the closing quote
        j += 1
        while j < n and src[j] != '"':
            j += 2 if src[j] == "\\" else 1
        return j + 1

    quoted = re.compile(r"\{([a-z_]*)\|")
    char_lit = re.compile(r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'\n])'")
    start = 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            if depth == 0:
                start = i
            depth += 1
            i += 2
            continue
        if depth > 0 and src.startswith("*)", i):
            depth -= 1
            i += 2
            if depth == 0:
                blank(start, i)
            continue
        if c == '"':
            j = skip_string(i)
            if depth == 0:
                blank(i, j)
            i = j
            continue
        m = quoted.match(src, i)
        if m:
            close = "|" + m.group(1) + "}"
            j = src.find(close, m.end())
            j = n if j < 0 else j + len(close)
            if depth == 0:
                blank(i, j)
            i = j
            continue
        if c == "'" and (i == 0 or not (src[i - 1].isalnum() or src[i - 1] in "_'")):
            m = char_lit.match(src, i)
            if m:
                if depth == 0:
                    blank(i, m.end())
                i = m.end()
                continue
        i += 1
    if depth > 0:
        blank(start, n)
    return "".join(out)


def module_name(path):
    base = os.path.splitext(os.path.basename(path))[0]
    return base[0].upper() + base[1:]


def signature_vals(mli_text):
    """(submodule, name, line) of each `val` at signature depth 0 (submodule
    None) and of each `val` directly inside a top-level
    `module X : sig ... end` (submodule "X")."""
    vals = []
    depth = 0
    submodule = None
    for lineno, line in enumerate(mli_text.split("\n"), 1):
        m = re.match(r"\s*val\s+(" + IDENT + r")\s*:", line)
        if m and depth == 0:
            vals.append((None, m.group(1), lineno))
        elif m and depth == 1 and submodule:
            vals.append((submodule, m.group(1), lineno))
        if depth == 0:
            m = re.match(r"module\s+([A-Z]\w*)\s*:\s*sig\b", line)
            submodule = m.group(1) if m else None
        for tok in re.findall(r"\b(sig|struct|object|end)\b", line):
            depth += -1 if tok == "end" else 1
    return vals


def matching_paren(text, i):
    """Index just past the parenthesis matching the one at text[i]."""
    depth = 0
    for j in range(i, len(text)):
        if text[j] in "([{":
            depth += 1
        elif text[j] in ")]}":
            depth -= 1
            if depth == 0:
                return j + 1
    return len(text)


def collect_files(root):
    files = []
    for d in CALLER_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, d)):
            dirnames[:] = [x for x in dirnames if not x.startswith((".", "_"))]
            files += [os.path.join(dirpath, f) for f in filenames if f.endswith(".ml")]
    return sorted(files)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    verbose = "--verbose" in sys.argv[1:]
    mlis = sorted(
        os.path.join(dp, f)
        for dp, _, fs in os.walk(os.path.join(root, "lib"))
        for f in fs
        if f.endswith(".mli")
    )
    lib_modules = {module_name(p) for p in mlis}
    sources = {p: strip(open(p).read()) for p in collect_files(root)}

    # module aliases from every scanned file: alias name -> lib modules
    aliases = {}
    alias_paths = []  # (alias, aliased path), for aliases of submodules
    alias_re = re.compile(r"\bmodule\s+([A-Z]\w*)\s*=\s*([A-Z][\w.]*)")
    for text in sources.values():
        for a, target in alias_re.findall(text):
            aliases.setdefault(a, set()).add(target.split(".")[-1])
            alias_paths.append((a, target))
    changed = True
    while changed:  # resolve aliases of aliases
        changed = False
        for a, ts in aliases.items():
            new = set(ts)
            for t in ts:
                new |= aliases.get(t, set())
            if new != ts:
                aliases[a] = new
                changed = True
    names_of = {m: {m} for m in lib_modules}
    for a, ts in aliases.items():
        for t in ts & lib_modules:
            names_of[t].add(a)

    def resolves_to(path):
        last = path.split(".")[-1]
        return ({last} | aliases.get(last, set())) & lib_modules

    def opened(path):
        """Region keys an open of `path` brings into scope: a lib module `M`,
        or `(M, X)` for a path ending in `M.X`."""
        keys = set(resolves_to(path))
        if "." in path:
            parent, last = path.rsplit(".", 1)
            keys |= {(mod, last) for mod in resolves_to(parent)}
        return keys

    # opened regions per file: (region key, start, end)
    open_re = re.compile(r"\bopen!?\s+([A-Z][\w.]*)")
    local_re = re.compile(r"\b([A-Z][\w.]*)\.\(")
    regions = {}
    for p, text in sources.items():
        rs = []
        for m in open_re.finditer(text):
            for key in opened(m.group(1)):
                rs.append((key, m.end(), len(text)))
        for m in local_re.finditer(text):
            for key in opened(m.group(1)):
                rs.append((key, m.end() - 1, matching_paren(text, m.end() - 1)))
        regions[p] = rs

    def bare(name):
        return re.compile(r"(?<![\w.'~?])" + name + r"(?![\w'])")

    missing, stale, known = [], [], set()
    for mli in mlis:
        mod = module_name(mli)
        own = mli[:-1]
        qual = "|".join(sorted(names_of[mod]))
        for sub, v, line in signature_vals(strip(open(mli).read())):
            ev = re.escape(v)
            if sub is None:
                key = f"{mod}.{v}"
                q_re = re.compile(r"\b(?:" + qual + r")\." + ev + r"(?![\w'])")
                in_scope = [(mod, bare(ev))]
            else:
                key = f"{mod}.{sub}.{v}"
                sub_names = {a for a, target in alias_paths if (mod, sub) in opened(target)}
                q_re = re.compile(
                    r"\b(?:(?:" + qual + r")\." + sub
                    + "".join("|" + a for a in sorted(sub_names))
                    + r")\." + ev + r"(?![\w'])"
                )
                in_scope = [(mod, bare(sub + r"\." + ev)), ((mod, sub), bare(ev))]
            known.add(key)
            callers = []
            for p, text in sources.items():
                if p == own:
                    continue
                hit = q_re.search(text) is not None or any(
                    k == want and pat.search(text, a, b)
                    for k, a, b in regions[p]
                    for want, pat in in_scope
                )
                if hit:
                    callers.append(os.path.relpath(p, root))
            rel = os.path.relpath(mli, root)
            if verbose:
                print(f"{key}: {', '.join(callers) or '-'}")
            if callers and key in ALLOW:
                stale.append(f"{key}: allowlisted but called from {', '.join(callers)}")
            elif not callers and key not in ALLOW:
                missing.append(f"{rel}:{line}: {key} has no caller outside test/")
    checked = len(known)
    stale += [f"{k}: allowlisted but not a checked val" for k in ALLOW if k not in known]
    for line in missing + stale:
        print(line)
    print(
        f"api_callers: {checked} values, {len(ALLOW)} allowlisted, "
        f"{len(missing)} without a caller, {len(stale)} stale allowlist entries"
    )
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
