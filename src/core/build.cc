#include "src/core/nxgraph.h"
#include "src/prep/prep_internal.h"

namespace nxgraph {

Result<std::shared_ptr<GraphStore>> BuildGraphStore(
    const EdgeList& edges, const std::string& dir,
    const BuildOptions& options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  const std::unique_ptr<ThreadPool> pool = prep_internal::NewBuildPool();
  NX_ASSIGN_OR_RETURN(DegreeResult degrees,
                      prep_internal::RunDegreer(env, edges, dir, pool.get()));
  SharderOptions sharder_options;
  sharder_options.num_intervals = options.num_intervals;
  sharder_options.build_transpose = options.build_transpose;
  sharder_options.dedup = options.dedup;
  sharder_options.format = options.subshard_format;
  sharder_options.summary = options.summary;
  NX_RETURN_NOT_OK(prep_internal::RunSharder(env, dir, degrees,
                                             sharder_options, pool.get())
                       .status());
  return GraphStore::Open(env, dir);
}

Result<std::shared_ptr<GraphStore>> BuildGraphStoreFromTextFile(
    const std::string& edge_path, const std::string& dir,
    const BuildOptions& options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  NX_ASSIGN_OR_RETURN(EdgeList edges, LoadEdgeListText(env, edge_path));
  return BuildGraphStore(edges, dir, options);
}

Result<std::shared_ptr<GraphStore>> OpenGraphStore(const std::string& dir,
                                                   Env* env) {
  return GraphStore::Open(env != nullptr ? env : Env::Default(), dir);
}

}  // namespace nxgraph
