/**
 * @file
 * Flow-level network simulation.
 *
 * A Flow carries bytes from a source GPU to a destination GPU over one
 * or more paths. The routing policy decides the path set:
 *
 *  - ECMP: a hash of (src, dst, qp) selects exactly one of the
 *    equal-cost shortest paths. Collisions of large flows on one link
 *    are what Figure 8 shows degrading NCCL performance.
 *  - ADAPTIVE: the flow is split evenly across all equal-cost paths
 *    (idealized packet spraying).
 *  - STATIC: a deterministic greedy table that spreads flows over the
 *    paths in flow-creation order (a manually configured routing
 *    table).
 *
 * A routed flow views its paths inside the shared, immutable PathSet
 * they came from (see route_cache.hh) rather than copying them, and
 * so does FlowSimEngine.
 *
 * Rates come from max-min fair sharing (progressive water-filling) of
 * directed link capacities; completion uses an event loop that re-fills
 * whenever a flow finishes, so mixed-size flow sets are timed exactly
 * under the fluid model.
 *
 * The solver lives in FlowSimEngine, which keeps the subflow set and
 * the edge->subflow indices alive across completion epochs so a
 * finished flow is retired in O(paths) instead of rebuilding the whole
 * active set. maxMinRates()/simulateFlows() are thin wrappers over a
 * throwaway engine.
 *
 * The engine reports itself under "net.flow.*" in the stats registry
 * (solver iterations, rounds reused from the last schedule, epochs,
 * retired flows) and brackets build/solve/run with trace spans; see
 * DESIGN.md "Observability".
 */

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/winner_tree.hh"
#include "net/graph.hh"
#include "net/route_cache.hh"

namespace dsv3::net {

enum class RoutePolicy
{
    ECMP,
    ADAPTIVE,
    STATIC,
};

const char *routePolicyName(RoutePolicy policy);

/** One unidirectional transfer. */
struct Flow
{
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    double bytes = 0.0;
    std::uint64_t qp = 0; //!< queue-pair id; feeds the ECMP hash

    // Bound by assignPaths() / PathBinder: read-only views into the
    // immutable PathSet the policy selected from. pathSet pins that
    // set's arena, so one live flow keeps its whole route-cache table
    // alive. Copying a Flow copies the views and shares the pin.
    PathList paths;                  //!< one (ECMP/STATIC) or many
    std::span<const double> weights; //!< fraction of traffic per path
    PathSetRef pathSet = {};
};

/**
 * Path selection for one routing call; assignPaths(), failover
 * rerouting and DeepEP all bind flows through it. Candidate sets come
 * from the process RouteCache (canonical sorted shortest-path sets
 * shared across calls and sweeps); with the cache disabled the binder
 * fills one arena of its own with the same sets, one per bind.
 * Selection (ECMP hash pick, ADAPTIVE even split, STATIC table) is
 * per-binder state either way, so results are byte-identical whether
 * the cache is cold, warm, or off.
 */
class PathBinder
{
  public:
    /**
     * @param seed perturbs the ECMP hash (models switches hashing
     *        differently across runs); ignored by other policies.
     * @param static_table STATIC builds a greedy conflict-minimizing
     *        table over the flows bound so far (assignPaths()); when
     *        false STATIC takes the first canonical path (failover: a
     *        static table has no planner at failover time).
     */
    PathBinder(const Graph &graph, RoutePolicy policy,
               std::uint64_t seed, bool static_table = true);

    /**
     * Point @p flow's paths/weights at the policy's pick from its
     * (src, dst) set and pin the set. Returns false, leaving the flow
     * with no paths, when no route joins src to dst.
     */
    bool bind(Flow &flow);

  private:
    const Graph &graph_;
    const RoutePolicy policy_;
    const std::uint64_t seed_;
    const bool static_table_;
    std::vector<std::uint32_t> static_load_; //!< per edge, STATIC table
    /** The sets this binder filled itself; null with the cache on. */
    std::shared_ptr<PathArena> local_arena_;
};

/**
 * Bind flow.paths/weights for every flow through one PathBinder.
 *
 * @param seed perturbs the ECMP hash (models switches hashing
 *        differently across runs); ignored by other policies.
 * @param unrouted when non-null, flows with no surviving route (a
 *        fault partitioned src from dst) are collected here with
 *        empty path sets instead of aborting the run; when null a
 *        missing route is a hard error as before.
 */
void assignPaths(const Graph &graph, std::vector<Flow> &flows,
                 RoutePolicy policy, std::uint64_t seed = 0,
                 std::vector<std::size_t> *unrouted = nullptr);

/** Result of a fluid simulation. */
struct FlowSimResult
{
    std::vector<double> rates;       //!< instantaneous first-epoch rate
    std::vector<double> finishTimes; //!< per-flow completion (seconds)
    double makespan = 0.0;           //!< last completion
    /** Peak utilization (rate/capacity) over all edges, first epoch. */
    double peakUtilization = 0.0;
    /** Completion epochs the event loop stepped through. */
    std::size_t epochs = 0;
    /**
     * Water-fill schedule rounds across all solves, reused or computed
     * (FlowSimEngine::solverIterations()).
     */
    std::uint64_t solverIterations = 0;
};

/**
 * Incremental max-min fair solver over a fixed flow set.
 *
 * The engine is built once from a graph and a routed flow set (call
 * assignPaths() first). It indexes every (flow, path) subflow by the
 * edges it crosses, and keeps per-edge active-subflow counts up to
 * date as flows are retired with removeFlow(). Each solve() water-fills
 * only the live subflows, reading each bottleneck off a winner tree
 * over edge ids keyed by fair share instead of rescanning every edge
 * per iteration. Rates are bit-identical to the classic full rescan:
 * the tree's top is the (smallest share, smallest edge id) the linear
 * scan selects, subflows freeze in the same construction order, and
 * each edge takes a freeze round's k crossings as k sequential
 * clamped subtractions, so every edge sees the same floating-point
 * operation sequence.
 *
 * solve() keeps its schedule (the rounds, and an undo log of each
 * round's edge updates). When only removeFlow() or detachFlow() ran
 * since, the next solve() rewinds it to the first round that froze a
 * removed subflow and water-fills from there: the rounds before it are
 * the ones a fresh solve would repeat bit for bit. An attachFlow() or
 * a capacity change restarts the schedule at round 0. DESIGN.md "Flow
 * engine internals" gives the argument.
 *
 * The engine copies no edges: each subflow is a view into the path
 * set its flow pins (Flow::pathSet). So the graph and flow vector
 * must outlive the engine, and the flows' path sets must not change
 * while the engine is alive, except through the
 * detachFlow()/attachFlow() rebinding protocol (fault failover).
 * Capacity changes on the graph (fault injection) are picked up by
 * the next solve(), which re-reads every live edge's capacity.
 */
class FlowSimEngine
{
  public:
    FlowSimEngine(const Graph &graph, const std::vector<Flow> &flows);
    /** Leaves the undo log to the next engine built on this thread. */
    ~FlowSimEngine();
    FlowSimEngine(const FlowSimEngine &) = delete;
    FlowSimEngine &operator=(const FlowSimEngine &) = delete;

    /**
     * Max-min rates for the currently active flows. Active local flows
     * (src == dst, every path empty) get infinity; retired flows get 0.
     * The reference stays valid until the next solve().
     */
    const std::vector<double> &solve();

    /** Retire a flow, releasing its subflows in O(total path length). */
    void removeFlow(std::size_t flow);

    /**
     * Release a live flow's subflows without retiring the flow, so
     * the caller may rebind its path set (fault failover). Call
     * sequence: detachFlow(i); rebind flows[i]; attachFlow(i). The
     * engine views the edges of the set flows[i] pins and never
     * reads a detached subflow's edges again, so rebinding may drop
     * the old pin.
     */
    void detachFlow(std::size_t flow);

    /**
     * Index a detached flow's (new) path set into the engine. The
     * next solve() water-fills the rerouted subflows incrementally --
     * retired flows stay retired, untouched flows keep their subflow
     * order, and the result is bit-identical to rebuilding the engine
     * from scratch over the same live flow set.
     */
    void attachFlow(std::size_t flow);

    /**
     * Flow ids (ascending) of active attached flows that cross at
     * least one zero-capacity edge -- exactly the flows flowBroken()
     * would flag -- found by walking the downed edges' subflow lists
     * instead of rescanning every flow's whole path set. Failover
     * calls this after fault injection, where downed edges are few.
     */
    void collectBrokenFlows(std::vector<std::size_t> &out);

    bool flowActive(std::size_t flow) const { return alive_[flow]; }
    std::size_t activeFlows() const { return active_flows_; }
    std::size_t subflowCount() const { return sub_flow_.size(); }
    /**
     * Water-fill rounds summed over every solve() so far. Each solve
     * adds its whole schedule's length, the rounds it reused from the
     * last schedule as well as those it computed, so the count equals
     * a fresh engine's.
     */
    std::uint64_t solverIterations() const { return iterations_; }

    /**
     * Fluid-model completion times for all still-active flows:
     * repeatedly solve, advance to the next completion, retire the
     * finished flows. Consumes the engine's active set.
     */
    FlowSimResult run();

  private:
    /** Append @p flow's non-empty paths as subflows (no edge index). */
    void addSubflows(std::size_t flow);

    /** Re-derive the edge CSR from the live subflows. */
    void rebuildEdgeIndex();

    /**
     * Release @p flow's subflows (removeFlow()/detachFlow()) and lower
     * resume_round_ to the earliest round that froze one of them.
     */
    void releaseSubflows(std::size_t flow);

    /**
     * First round the next solve() must compute: resume_round_, or 0
     * when a live edge's capacity changed since the schedule started.
     */
    std::uint32_t resumeRound() const;

    const Graph &graph_;
    const std::vector<Flow> &flows_;

    // SoA subflow storage: parallel per-subflow arrays. A subflow's
    // edges are a view into its flow's pinned path set; a cold fill
    // appends sets in flow order, so the solver still walks them in
    // mostly contiguous memory.
    std::vector<std::uint32_t> sub_flow_; //!< subflow -> flow
    std::vector<Path> sub_path_;          //!< subflow -> its edges
    /**
     * flow -> contiguous subflow-id range [begin, end). A flow's
     * subflows are always consecutive ids: the constructor emits them
     * flow by flow and attachFlow() appends at the tail, so two
     * offset arrays replace a vector-of-vectors (engines are rebuilt
     * per sweep scenario, and the per-flow heap allocations were a
     * measurable slice of construction).
     */
    std::vector<std::uint32_t> flow_sub_begin_;
    std::vector<std::uint32_t> flow_sub_end_;
    /**
     * edge -> subflow ids crossing it, as CSR segments over one flat
     * pool: edge_sub_pool_[edge_sub_begin_[e] .. +edge_sub_count_[e])
     * in insertion (ascending-id) order. solve()'s lazy compaction
     * shrinks a segment's count in place. attachFlow() does not
     * splice into segments (that copies whole segments and goes
     * quadratic under a failover wave); it flips edge_index_dirty_
     * and the next solve()/collectBrokenFlows() calls
     * rebuildEdgeIndex(), one O(live) pass that re-scatters the live
     * subflows in ascending-id order -- the same live subsequence an
     * incremental edge list would hold.
     */
    std::vector<std::uint32_t> edge_sub_begin_;
    std::vector<std::uint32_t> edge_sub_count_;
    std::vector<std::uint32_t> edge_sub_pool_;
    bool edge_index_dirty_ = false;
    /** Edges crossed by at least one subflow, ascending. */
    std::vector<EdgeId> used_edges_;
    /** Live-subflow count per edge, kept current by removeFlow(). */
    std::vector<std::uint32_t> active_on_edge_;

    std::vector<bool> alive_;      //!< per flow
    std::vector<bool> sub_alive_;  //!< per subflow (rebind/retire)
    std::vector<bool> local_;      //!< per flow: every path empty
    std::size_t active_flows_ = 0;
    std::size_t active_subflows_ = 0;
    std::uint64_t iterations_ = 0;

    std::vector<double> rates_;    //!< per flow, filled by solve()

    // The last solve()'s schedule, kept for the next one to resume.
    std::vector<double> residual_;             //!< per edge
    std::vector<double> sub_rate_;             //!< per subflow
    /** Per subflow: 1 + the round that froze it, 0 while unfrozen. */
    std::vector<std::uint32_t> frozen_round_;
    /**
     * Per edge: frozen subflows crossing it, so its unfrozen count is
     * active_on_edge_[e] - frozen_on_edge_[e].
     */
    std::vector<std::uint32_t> frozen_on_edge_;
    /** Per edge: its capacity when the schedule started (round 0). */
    std::vector<double> schedule_capacity_;
    /** An edge's state before a round that touched it. */
    struct UndoEntry
    {
        EdgeId edge;
        std::uint32_t frozen; //!< frozen_on_edge_
        double residual;
    };
    /** Entries never zero-filled: solve() writes before it reads. */
    struct UndoLog
    {
        std::unique_ptr<UndoEntry[]> entries;
        std::size_t capacity = 0;
    };
    /**
     * Undo log, round after round: round i's entries end at
     * round_end_[i]. solve() grows it geometrically, at most once per
     * round. An engine takes its thread's spare log when built and
     * leaves the larger of the two there when destroyed, so successive
     * engines write into memory that is already mapped: growing a
     * fresh log (allocations, copies, page faults) added about 1 ms to
     * a new engine's first solve of the 128-GPU MRFT all-to-all on a
     * 4-vCPU x86 container.
     */
    UndoLog undo_;
    static UndoLog &spareUndo();
    std::vector<std::size_t> round_end_;
    /**
     * First round of the last schedule the next solve() must compute:
     * the schedule's length after a solve, lowered by removeFlow() and
     * detachFlow() to the earliest round of the flow's subflows, and
     * set to 0 by attachFlow().
     */
    std::uint32_t resume_round_ = 0;

    /**
     * Bottleneck candidates: fair share per edge with unfrozen
     * subflows. Every solve() drains it, so it starts each solve
     * empty without a reset.
     */
    WinnerTree<double> bottleneck_;
    /** Frozen crossings per edge in the current round (else 0). */
    std::vector<std::uint32_t> crossings_;
    /** Edges with crossings in the current freeze round. */
    std::vector<EdgeId> touched_;
};

/**
 * Max-min fair rates for the given flows (single epoch; ignores
 * bytes). rates[i] is flow i's total rate across its paths.
 */
std::vector<double> maxMinRates(const Graph &graph,
                                const std::vector<Flow> &flows);

/**
 * Fluid-model completion times: repeatedly compute max-min rates,
 * advance to the next flow completion, release its capacity.
 */
FlowSimResult simulateFlows(const Graph &graph,
                            const std::vector<Flow> &flows);

} // namespace dsv3::net
