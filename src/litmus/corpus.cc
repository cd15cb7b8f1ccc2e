#include "litmus/corpus.hh"

#include "sim/logging.hh"

namespace bbb
{
namespace litmus
{

namespace
{

/**
 * The corpus text. Witness feasibility is lowering-sensitive: under
 * pmem-strict every store becomes st;flush;sfence, and a fence retires
 * only on an empty store buffer — so outcomes that need a store to
 * linger in the buffer past a later op of the same thread (the classic
 * SB relaxation) are tagged to the modes that keep them reachable.
 */
const char *kCorpusText[] = {

    // --- store buffering -------------------------------------------
    R"(test sb
smoke
t0: st x 1; ld y r0
t1: st y 1; ld x r1
sometimes [bbb-mem-side bbb-proc-side eadr] final r0=0 r1=0
sometimes final r0=1 r1=1
sometimes crash x=0 y=0
sometimes crash x=1 y=1
)",

    R"(test sb-mfence
smoke
t0: st x 1; mfence; ld y r0
t1: st y 1; mfence; ld x r1
sometimes final r0=1 r1=1
sometimes final r0=0 r1=1
)",

    // --- message passing -------------------------------------------
    R"(test mp
smoke
t0: st x 1; st y 1
t1: ld y r0; ld x r1
sometimes final r0=1 r1=1
sometimes final r0=0 r1=0
sometimes final r0=0 r1=1
sometimes crash x=1 y=0
)",

    R"(test mp-mfence
t0: st x 1; mfence; st y 1
t1: ld y r0; mfence; ld x r1
sometimes final r0=1 r1=1
sometimes final r0=0 r1=0
)",

    // --- load buffering (in-order cores: r0=r1=1 unreachable) ------
    R"(test lb
t0: ld y r0; st x 1
t1: ld x r1; st y 1
sometimes final r0=0 r1=0
sometimes final r0=0 r1=1
)",

    // --- coherence shapes (Table II: CoRR / CoWW / CoWR / CoRW) ----
    R"(test corr
smoke
t0: st x 1; st x 2
t1: ld x r0; ld x r1
sometimes final r0=1 r1=2
sometimes final r0=0 r1=0
sometimes final r0=2 r1=2
sometimes crash x=1
)",

    R"(test coww
smoke
t0: st x 1; st x 2
t1: ld x r0
sometimes final r0=2
sometimes crash x=1
sometimes crash x=2
)",

    R"(test cowr
t0: st x 1; ld x r0; st x 2
t1: ld x r1
sometimes final r0=1 r1=0
sometimes final r0=1 r1=2
)",

    R"(test corw
t0: ld x r0; st x 1
t1: st x 2
sometimes final r0=0
sometimes final r0=2
sometimes crash x=2
)",

    // --- causality chains ------------------------------------------
    R"(test wrc
t0: st x 1
t1: ld x r0; st y 1
t2: ld y r1; ld x r2
sometimes final r0=1 r1=1 r2=1
sometimes final r0=0 r1=0 r2=0
)",

    R"(test s
t0: st x 2; st y 1
t1: ld y r0; st x 1
sometimes final r0=1
sometimes final r0=0
sometimes crash x=2 y=1
)",

    R"(test r
t0: st x 1; st y 1
t1: st y 2; ld x r0
sometimes final r0=0
sometimes final r0=1
sometimes crash y=2 x=0
)",

    R"(test 2+2w
t0: st x 1; st y 2
t1: st y 1; st x 2
sometimes crash x=1 y=1
sometimes crash x=2 y=2
)",

    // Four threads: two writers, two readers. TSO forbids the readers
    // disagreeing on the store order; the reachable witnesses pin down
    // that the enumerator really drives all four cores. Restricted to
    // single-store-per-writer lowerings to keep the state space sane.
    // The writers' PMEM persist ops are elided by the strict machines
    // (Table I): one the machine issued would be an op the model lacks.
    R"(test iriw
modes bbb-mem-side eadr
t0: st x 1; flush x; sfence
t1: st y 1; flushopt y; sfence
t2: ld x r0; ld y r1
t3: ld y r2; ld x r3
sometimes final r0=0 r1=0 r2=0 r3=0
sometimes final r0=1 r1=0 r2=1 r3=1
)",

    // --- persist-order prefixes (strict modes) ---------------------
    // The post-crash image must always be a volatile-order prefix:
    // {}, {a}, {a,b}, {a,b,c} and nothing else.
    R"(test epoch-strict
smoke
t0: st a 1; st b 2; st c 3
sometimes crash a=1 b=0 c=0
sometimes crash a=1 b=2 c=0
sometimes crash a=1 b=2 c=3
)",

    // A store forwarded to a younger load is still volatile: r0=1 while
    // the crash image holds 0.
    R"(test forward-volatile
t0: st x 1; ld x r0
sometimes final r0=1
sometimes crash x=0
)",

    // Cross-core persist causality: t1 stores y only after *reading*
    // x=1, so in strict modes a crash image with y=1 implies x=1 (the
    // model enforces the implication; the witnesses pin reachability).
    R"(test causal-persist
t0: st x 1
t1: ld x r0; st y 1
sometimes final r0=1
sometimes crash x=1 y=0
sometimes crash x=1 y=1
)",

    // bbPB coalescing: three same-block stores collapse into one
    // buffer entry but the crash image must still respect order.
    R"(test coalesce
t0: st x 1; st x 2; st x 3
t1: ld x r0
sometimes final r0=3
sometimes crash x=2
)",

    // --- bbPB ownership migration (paper Fig. 6) -------------------
    // A block persisted by core 0 is re-written by core 1: the bbPB
    // entry must migrate (mem-side) or drain-then-reorder (proc-side)
    // without losing either version's ordering.
    R"(test migrate
smoke
t0: st x 1
t1: st x 2
sometimes crash x=1
sometimes crash x=2
)",

    R"(test migrate-read
t0: st x 1; ld y r0
t1: ld x r1; st y 1
sometimes final r0=1 r1=1
sometimes final r0=0 r1=0
sometimes final r0=0 r1=1
)",

    // --- Px86 flush/fence idioms (ADR-PMEM machine) ----------------
    // The epoch idiom: x is fence-confirmed before y is even flushed,
    // so x=1,y=0 is a reachable crash image and y's durability always
    // implies x's.
    R"(test epoch
smoke
modes adr-pmem
t0: st x 1; flush x; sfence; st y 1; flush y; sfence
t1: ld y r0; ld x r1
sometimes crash x=1 y=0
sometimes crash x=1 y=1
sometimes final r0=1 r1=1
)",

    // The data-loss motivating example: y is flushed but x is not, so
    // the crash image can hold the *younger* value only — exactly what
    // the strict modes make impossible.
    R"(test missing-flush
smoke
modes adr-pmem
t0: st x 1; st y 1; flush y; sfence
sometimes crash y=1 x=0
sometimes crash x=0 y=0
)",

    R"(test flushopt
modes adr-pmem
t0: st x 1; flushopt x; sfence; st y 1
t1: ld x r0
sometimes crash x=1 y=0
sometimes final r0=1
)",

    // Same-block flush ordering: after st1;st2;flush;sfence the fence
    // confirms the *coalesced* value, never the stale one.
    R"(test flush-order
modes adr-pmem pmem-strict
t0: st x 1; st x 2; flush x; sfence
sometimes crash x=2
)",

    // A flush without a fence still reaches the ADR domain (WPQ):
    // x=1 is reachable but not guaranteed.
    R"(test adr-wpq
modes adr-pmem
t0: st x 1; flush x
sometimes crash x=1
sometimes crash x=0
)",

    // One fence confirming a batch of flushes.
    R"(test fence-batch
modes adr-pmem
t0: st x 1; st y 1; flush x; flush y; sfence; st z 1
sometimes crash x=1 y=1 z=0
)",

    // Two confirmed versions of one block: after each sfence the image
    // is pinned exactly (durmin advances past the older value).
    R"(test wpq-coalesce
modes adr-pmem
t0: st x 1; flush x; sfence; st x 2; flush x; sfence
sometimes crash x=1
sometimes crash x=2
)",

    // --- battery sweeps (bbPB crash drain under energy budgets) ----
    // Single store per variable so the k-item prefix cut predicts the
    // exact image; battery-prefix-1 is in the smoke set because it is
    // the test that catches a reversed crash-drain order.
    R"(test battery-prefix-1
smoke
battery
modes bbb-mem-side bbb-proc-side
t0: st x 1; st y 2
sometimes crash x=1 y=0
sometimes crash x=1 y=2
)",

    R"(test battery-prefix-2
battery
modes bbb-mem-side bbb-proc-side
t0: st x 1; st y 2
t1: st z 3; flush z; sfence
sometimes crash x=1 y=0 z=0
sometimes crash x=1 y=2 z=3
)",
};

std::vector<Test>
parseAll()
{
    std::vector<Test> tests;
    for (const char *text : kCorpusText) {
        Test t;
        std::string err;
        if (!parseTest(text, &t, &err))
            fatal("built-in litmus corpus failed to parse: %s",
                  err.c_str());
        for (const Test &prev : tests) {
            if (prev.name == t.name)
                fatal("built-in litmus corpus has duplicate test '%s'",
                      t.name.c_str());
        }
        tests.push_back(std::move(t));
    }
    return tests;
}

} // namespace

const std::vector<Test> &
corpus()
{
    static const std::vector<Test> tests = parseAll();
    return tests;
}

std::vector<Test>
smokeCorpus()
{
    std::vector<Test> out;
    for (const Test &t : corpus()) {
        if (t.smoke)
            out.push_back(t);
    }
    return out;
}

const Test *
findTest(const std::string &name)
{
    for (const Test &t : corpus()) {
        if (t.name == name)
            return &t;
    }
    return nullptr;
}

} // namespace litmus
} // namespace bbb
