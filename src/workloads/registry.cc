/**
 * @file
 * Workload factory: maps Table IV names to implementations.
 */

#include "workloads/workload.hh"

#include "sim/logging.hh"
#include "workloads/array_ops.hh"
#include "workloads/btree.hh"
#include "workloads/ctree.hh"
#include "workloads/hashmap.hh"
#include "workloads/linkedlist.hh"
#include "workloads/rbtree.hh"
#include "workloads/rtree.hh"
#include "workloads/skiplist.hh"

namespace bbb
{

namespace
{

template <class W, auto... args>
std::unique_ptr<Workload>
make(const WorkloadParams &p)
{
    return std::make_unique<W>(p, args...);
}

using Op = ArrayWorkload::Op;

/** Every workload, in workloadNames() order. */
const struct
{
    const char *name;
    std::unique_ptr<Workload> (*make)(const WorkloadParams &);
} kWorkloads[] = {
    {"rtree", make<RbtreeWorkload>},
    {"ctree", make<CtreeWorkload>},
    {"hashmap", make<HashmapWorkload>},
    {"mutateNC", make<ArrayWorkload, Op::Mutate, false>},
    {"mutateC", make<ArrayWorkload, Op::Mutate, true>},
    {"swapNC", make<ArrayWorkload, Op::Swap, false>},
    {"swapC", make<ArrayWorkload, Op::Swap, true>},
    {"linkedlist", make<LinkedListWorkload>},
    {"skiplist", make<SkiplistWorkload>},
    {"rtree-spatial", make<RtreeWorkload>},
    {"btree", make<BtreeWorkload>},
};

} // namespace

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto &w : kWorkloads)
        names.push_back(w.name);
    return names;
}

std::string
workloadNameError(const std::string &name)
{
    for (const auto &w : kWorkloads)
        if (name == w.name)
            return "";
    return "unknown workload '" + name + "'";
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadParams &p)
{
    for (const auto &w : kWorkloads) {
        if (name == w.name) {
            std::unique_ptr<Workload> wl = w.make(p);
            wl->_name = w.name;
            return wl;
        }
    }
    fatal("unknown workload '%s'", name.c_str());
}

} // namespace bbb
