"""Delta-minimizer for disagreeing generated programs.

Works on the structured :class:`~repro.fuzz.genprog.ProgramSpec`, not on
source text, so every candidate it proposes is well-formed by
construction. The reduction moves, tried greedily to a fixpoint:

1. drop a whole top-level block (loop or seed statement);
2. drop an inner (nested) loop;
3. drop a single body statement;
4. replace a statement with one of its precomputed simpler alternatives
   (the generator builds the shrink ladder at generation time — e.g. a
   hashed subscript simplifies to a plain masked one, a complex stored
   value to a constant);
5. halve a loop's trip count.

After every accepted move the *same* oracle must still fire (the
``still_fails`` predicate, usually
:func:`repro.fuzz.harness.oracle_predicate`), so the minimized program
reproduces the original disagreement, not some new one.
"""

from __future__ import annotations

from .genprog import LoopSpec

#: Fixpoint bound — each round re-tries every move class once.
MAX_ROUNDS = 6


def _try(spec, mutate, still_fails):
    """Apply ``mutate`` to a clone; keep it when the oracle still fires."""
    candidate = spec.clone()
    if not mutate(candidate):
        return spec, False
    if still_fails(candidate):
        return candidate, True
    return spec, False


def shrink_spec(spec, still_fails, max_rounds=MAX_ROUNDS):
    """Greedy fixpoint minimization of ``spec`` under ``still_fails``.

    Returns the (possibly unchanged) minimized spec. ``still_fails`` is
    only ever called on rendered candidates, never on the original — the
    caller already knows the original fails.
    """
    rounds = 0
    changed = True
    while changed and rounds < max_rounds:
        changed = False
        rounds += 1

        # 1. Drop top-level blocks, last first (later blocks usually
        #    depend on earlier seeds, not vice versa).
        index = len(spec.blocks) - 1
        while index >= 0:
            def drop_block(candidate, index=index):
                if len(candidate.blocks) <= index:
                    return False
                del candidate.blocks[index]
                return True

            spec, accepted = _try(spec, drop_block, still_fails)
            changed = changed or accepted
            index -= 1

        # 2. Drop inner loops.
        for position, block in enumerate(spec.blocks):
            if isinstance(block, LoopSpec) and block.inner is not None:
                def drop_inner(candidate, position=position):
                    loop = candidate.blocks[position]
                    if not isinstance(loop, LoopSpec) or loop.inner is None:
                        return False
                    loop.inner = None
                    return True

                spec, accepted = _try(spec, drop_inner, still_fails)
                changed = changed or accepted

        # 3. Drop individual body statements (keep at least one so the
        #    loop stays meaningful; move 1 removes empty-able loops whole).
        for position, block in enumerate(spec.blocks):
            if not isinstance(block, LoopSpec):
                continue
            for owner_path in ((position,), (position, "inner")):
                loop = _resolve(spec, owner_path)
                if loop is None:
                    continue
                stmt_index = len(loop.body) - 1
                while stmt_index >= 0:
                    def drop_stmt(candidate, owner_path=owner_path,
                                  stmt_index=stmt_index):
                        loop = _resolve(candidate, owner_path)
                        if loop is None or len(loop.body) <= 1 \
                                or stmt_index >= len(loop.body):
                            return False
                        del loop.body[stmt_index]
                        return True

                    spec, accepted = _try(spec, drop_stmt, still_fails)
                    changed = changed or accepted
                    stmt_index -= 1

        # 4. Simplify statements via their precomputed alternatives.
        for position, block in enumerate(spec.blocks):
            if not isinstance(block, LoopSpec):
                continue
            for owner_path in ((position,), (position, "inner")):
                loop = _resolve(spec, owner_path)
                if loop is None:
                    continue
                for stmt_index in range(len(loop.body)):
                    for alt_index in range(
                            len(loop.body[stmt_index].alts)):
                        def simplify(candidate, owner_path=owner_path,
                                     stmt_index=stmt_index,
                                     alt_index=alt_index):
                            loop = _resolve(candidate, owner_path)
                            if loop is None \
                                    or stmt_index >= len(loop.body):
                                return False
                            stmt = loop.body[stmt_index]
                            if alt_index >= len(stmt.alts):
                                return False
                            loop.body[stmt_index] = stmt.alts[alt_index]
                            return True

                        spec, accepted = _try(spec, simplify, still_fails)
                        changed = changed or accepted
                        if accepted:
                            break

        # 5. Halve trip counts (min trip 2 keeps a loop a loop).
        for position, block in enumerate(spec.blocks):
            if not isinstance(block, LoopSpec):
                continue
            for owner_path in ((position,), (position, "inner")):
                loop = _resolve(spec, owner_path)
                if loop is None or loop.trip <= 2:
                    continue

                def halve(candidate, owner_path=owner_path):
                    loop = _resolve(candidate, owner_path)
                    if loop is None or loop.trip <= 2:
                        return False
                    loop.bound = loop.start \
                        + loop.step * max(2, loop.trip // 2)
                    return True

                spec, accepted = _try(spec, halve, still_fails)
                changed = changed or accepted
    return spec


def _resolve(spec, path):
    """Follow a (block-index[, "inner"]) path to a LoopSpec, or ``None``."""
    if path[0] >= len(spec.blocks):
        return None
    node = spec.blocks[path[0]]
    if not isinstance(node, LoopSpec):
        return None
    if len(path) == 2:
        node = node.inner
    return node
