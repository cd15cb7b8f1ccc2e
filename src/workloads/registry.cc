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

std::vector<std::string>
workloadNames()
{
    return {"rtree",      "ctree",         "hashmap", "mutateNC",
            "mutateC",    "swapNC",        "swapC",   "linkedlist",
            "skiplist",   "rtree-spatial", "btree"};
}

std::string
workloadNameError(const std::string &name)
{
    for (const std::string &known : workloadNames())
        if (name == known)
            return "";
    return "unknown workload '" + name + "'";
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadParams &p)
{
    if (name == "rtree")
        return std::make_unique<RbtreeWorkload>(p);
    if (name == "rtree-spatial")
        return std::make_unique<RtreeWorkload>(p);
    if (name == "btree")
        return std::make_unique<BtreeWorkload>(p);
    if (name == "skiplist")
        return std::make_unique<SkiplistWorkload>(p);
    if (name == "ctree")
        return std::make_unique<CtreeWorkload>(p);
    if (name == "hashmap")
        return std::make_unique<HashmapWorkload>(p);
    if (name == "mutateNC")
        return std::make_unique<ArrayWorkload>(p, ArrayWorkload::Op::Mutate,
                                               false);
    if (name == "mutateC")
        return std::make_unique<ArrayWorkload>(p, ArrayWorkload::Op::Mutate,
                                               true);
    if (name == "swapNC")
        return std::make_unique<ArrayWorkload>(p, ArrayWorkload::Op::Swap,
                                               false);
    if (name == "swapC")
        return std::make_unique<ArrayWorkload>(p, ArrayWorkload::Op::Swap,
                                               true);
    if (name == "linkedlist")
        return std::make_unique<LinkedListWorkload>(p);
    fatal("unknown workload '%s'", name.c_str());
}

} // namespace bbb
