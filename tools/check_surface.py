#!/usr/bin/env python3
"""Keep lib/'s public surface to what the system calls.

Fails (exit 1) and lists the offenders when
  - a `val` exported by a lib/**/*.mli is named by no file other than its
    own .ml/.mli under lib, bin, perfbench, examples and test;
  - an optional argument of an exported function is passed by no caller.

An export counts as named when the word appears in another file, so
this half is a lower bound on dead code: another module's value of the
same name, or a comment, counts as a use.  An optional argument counts
as passed when [~arg] or [?arg] follows a call of the function within
600 characters; outside the function's own .ml the call must be
qualified by its module or an alias of it, or sit in a file that opens
the module.

  python3 tools/check_surface.py    # exit 1 on offenders
"""

import os
import re
import sys

ROOTS = ["lib", "bin", "perfbench", "examples", "test"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)
OPT = re.compile(r"\?([a-z_][A-Za-z0-9_']*)\s*:")
COMMENT = re.compile(r"\(\*.*?\*\)", re.S)


def sources(top):
    for root in ROOTS:
        for d, dirs, files in os.walk(os.path.join(top, root)):
            # dune ignores _build and other _- or .-prefixed directories
            dirs[:] = [x for x in dirs if not x.startswith(("_", "."))]
            for f in files:
                if f.endswith((".ml", ".mli")):
                    p = os.path.join(d, f)
                    with open(p) as h:
                        yield os.path.relpath(p, top), h.read()


def exports(path, text):
    """(name, optional argument names) of every val in an .mli."""
    text = COMMENT.sub(lambda m: " " * len(m.group(0)), text)
    starts = list(VAL.finditer(text))
    for i, m in enumerate(starts):
        end = starts[i + 1].start() if i + 1 < len(starts) else len(text)
        sig = re.split(r"\n\s*(?:type|module|end|exception|include)\b",
                       text[m.end():end])[0]
        yield m.group(1), OPT.findall(strip_parens(sig))


def strip_parens(sig):
    """Drop parenthesised sub-types, so only the function's own
    arguments remain."""
    out, depth = [], 0
    for c in sig:
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0:
            out.append(c)
    return "".join(out)


def passes(text, module, name, arg, own):
    """Does [text] apply [module]'s [name] to [~arg] or [?arg]?  Outside
    the module's own .ml a call must name the module, an alias of it or
    a module that opens it."""
    text = COMMENT.sub(" ", text)
    heads = [module] + re.findall(
        r"module\s+(\w+)\s*=\s*(?:\w+\.)*%s\b" % module, text)
    bare = own or re.search(r"\bopen!?\s+(?:\w+\.)*%s\b" % module, text)
    for m in re.finditer(r"(?<![\w'])%s(?![\w'])" % re.escape(name), text):
        before = text[max(0, m.start() - 40):m.start()]
        if re.search(r"\b(let|rec|and|val)\s+$", before):
            continue
        qualified = re.search(r"\b(\w+)\.$", before)
        if not (bare or (qualified and qualified.group(1) in heads)):
            continue
        window = text[m.end():m.end() + 600]
        if re.search(r"[~?]%s(?![\w'])" % re.escape(arg), window):
            return True
    return False


def main():
    top = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = dict(sources(top))
    words = {p: set(re.findall(r"[A-Za-z_][A-Za-z0-9_']*", t))
             for p, t in files.items()}
    dead, knobs = [], []
    for path in sorted(files):
        if not (path.startswith("lib/") and path.endswith(".mli")):
            continue
        own = {path, path[:-1]}
        module = os.path.basename(path)[:-4].capitalize()
        for name, opts in exports(path, files[path]):
            users = [p for p in files if p not in own and name in words[p]]
            label = "%s.%s (%s)" % (module, name, path)
            if not users:
                dead.append(label)
            for arg in opts:
                if not any(passes(files[p], module, name, arg, p in own)
                           for p in files if p != path):
                    knobs.append("%s ?%s" % (label, arg))
    for title, xs in (("exports no other file names", dead),
                      ("optional arguments no caller passes", knobs)):
        if xs:
            print("%s (%d):" % (title, len(xs)))
            for x in xs:
                print("  " + x)
    if dead or knobs:
        sys.exit(1)
    print("surface ok: every export and optional argument has a caller")


if __name__ == "__main__":
    main()
