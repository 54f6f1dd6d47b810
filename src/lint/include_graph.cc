#include "lint/include_graph.hh"

#include <filesystem>
#include <functional>
#include <map>

namespace astra::lint
{

namespace
{

namespace fs = std::filesystem;

/** Rank of a layer directory name inside src/; -1 when unknown. */
int
srcDirRank(const std::string &dir)
{
    if (dir == "common")
        return 0;
    if (dir == "compute" || dir == "fault" || dir == "guard")
        return 1;
    if (dir == "net" || dir == "topo")
        return 2;
    if (dir == "collective")
        return 3;
    if (dir == "core")
        return 4;
    if (dir == "workload")
        return 5;
    if (dir == "explore" || dir == "lint")
        return 6;
    return -1;
}

constexpr int kTopRank = 1000; // tools/tests/bench/examples

/** First path component of @p relpath, or "" when there is none. */
std::string
firstComponent(const std::string &relpath)
{
    std::size_t slash = relpath.find('/');
    return slash == std::string::npos ? std::string()
                                      : relpath.substr(0, slash);
}

std::string
normalize(const std::string &path)
{
    return fs::path(path).lexically_normal().generic_string();
}

/**
 * Resolve a quoted include @p target written in @p includer to a
 * repo-root-relative path, or "" when it does not name a project file.
 */
std::string
resolveInclude(const std::string &root, const std::string &includer,
               const std::string &target)
{
    if (fs::exists(fs::path(root) / "src" / target))
        return normalize("src/" + target);
    if (fs::exists(fs::path(root) / target))
        return normalize(target);
    fs::path sibling = fs::path(includer).parent_path() / target;
    if (fs::exists(fs::path(root) / sibling))
        return normalize(sibling.generic_string());
    return std::string();
}

} // namespace

int
layerRank(const std::string &relpath)
{
    std::string norm = normalize(relpath);
    std::string top = firstComponent(norm);
    if (top == "src") {
        std::string rest = norm.substr(4);
        return srcDirRank(firstComponent(rest));
    }
    if (top == "tools" || top == "tests" || top == "bench" ||
        top == "examples")
        return kTopRank;
    return -1;
}

std::string
layerName(const std::string &relpath)
{
    std::string norm = normalize(relpath);
    std::string top = firstComponent(norm);
    if (top == "src")
        return firstComponent(norm.substr(4));
    return top.empty() ? norm : top;
}

void
checkIncludeGraph(const std::vector<LexedFile> &files,
                  const std::string &root,
                  std::vector<Diagnostic> &out,
                  std::vector<SuppressionUse> *uses)
{
    // Resolved project-include edges, with the directive line of each.
    struct Edge
    {
        std::string to;
        int line;
    };
    std::map<std::string, std::vector<Edge>> graph;
    std::map<std::string, const LexedFile *> byPath;

    for (const LexedFile &f : files) {
        std::string from = normalize(f.path);
        byPath[from] = &f;
        int from_rank = layerRank(from);
        for (const IncludeDirective &inc : f.includes) {
            if (inc.angled)
                continue;
            std::string to = resolveInclude(root, from, inc.target);
            if (to.empty())
                continue;
            graph[from].push_back(Edge{to, inc.line});

            int to_rank = layerRank(to);
            if (from_rank >= 0 && to_rank >= 0 && from_rank < to_rank) {
                emitUnlessSuppressed(
                    f, inc.line, 1, "layer-dag",
                    "layer '" + layerName(from) +
                        "' must not include upper layer '" +
                        layerName(to) + "' (" + inc.target +
                        "); the layer DAG flows workload > core > "
                        "collective > net/topo > compute/fault/"
                        "guard > common",
                    out, uses);
            }
        }
    }

    // File-level cycle detection (DFS, three colours) over edges whose
    // endpoints were both analyzed.
    std::map<std::string, int> colour; // 0 white, 1 grey, 2 black
    std::vector<std::string> path;
    std::set<std::set<std::string>> reported; // node sets of cycles

    std::function<void(const std::string &)> visit =
        [&](const std::string &node) {
            colour[node] = 1;
            path.push_back(node);
            auto it = graph.find(node);
            if (it != graph.end()) {
                for (const Edge &e : it->second) {
                    if (byPath.count(e.to) == 0)
                        continue;
                    int c = colour[e.to];
                    if (c == 0) {
                        visit(e.to);
                    } else if (c == 1) {
                        // Back edge: the cycle is path[first..end] + to.
                        std::size_t first = 0;
                        while (first < path.size() &&
                               path[first] != e.to)
                            ++first;
                        std::string chain;
                        std::set<std::string> key;
                        for (std::size_t i = first; i < path.size();
                             ++i) {
                            chain += path[i] + " -> ";
                            key.insert(path[i]);
                        }
                        chain += e.to;
                        if (reported.insert(key).second) {
                            emitUnlessSuppressed(
                                *byPath.at(node), e.line, 1,
                                "include-cycle", "include cycle: " + chain,
                                out, uses);
                        }
                    }
                }
            }
            path.pop_back();
            colour[node] = 2;
        };

    for (const auto &[node, file] : byPath) {
        (void)file;
        if (colour[node] == 0)
            visit(node);
    }
}

} // namespace astra::lint
