/**
 * @file
 * Network description parser / formatter.
 */

#include "parser.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <vector>

#include "common/logging.hh"

namespace supernpu {
namespace dnn {

namespace {

/** Split a line into whitespace-separated tokens. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream stream(line);
    std::string token;
    while (stream >> token) {
        if (token[0] == '#')
            break; // trailing comment
        tokens.push_back(token);
    }
    return tokens;
}

/** Parse a required integer field that must fit in an int. */
int
intField(const std::string &token, int line_no, const char *what)
{
    if (token == "-")
        fatal("line ", line_no, ": field '", what,
              "' is required for this layer kind");
    errno = 0;
    char *end = nullptr;
    const long long value = std::strtoll(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0')
        fatal("line ", line_no, ": bad integer '", token,
              "' for field '", what, "'");
    if (errno == ERANGE || value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max())
        fatal("line ", line_no, ": field '", what, "' value ", token,
              " does not fit in an int");
    return (int)value;
}

/** Parse a required integer field that must be positive. */
int
positiveField(const std::string &token, int line_no, const char *what)
{
    const int value = intField(token, line_no, what);
    if (value <= 0)
        fatal("line ", line_no, ": field '", what,
              "' must be positive, got ", value);
    return value;
}

/** Require a field the layer kind does not use to be written '-'. */
void
unusedField(const std::string &token, int line_no, const char *what,
            const std::string &kind)
{
    if (token != "-")
        fatal("line ", line_no, ": field '", what, "' is unused by ",
              kind, " and must be '-', got '", token, "'");
}

/** The validated spatial fields of a conv or dwconv line. */
struct SpatialFields
{
    int inC = 0;
    int inHW = 0;
    int kernel = 0;
    int stride = 0;
    int padding = 0;
};

/**
 * Parse a conv/dwconv line's spatial fields, rejecting any value the
 * layer arithmetic cannot take: a non-positive size, kernel or
 * stride, negative padding, or a kernel that leaves no output.
 */
SpatialFields
spatialFields(const std::vector<std::string> &tokens, int line_no)
{
    SpatialFields f;
    f.inC = positiveField(tokens[2], line_no, "inC");
    f.inHW = positiveField(tokens[3], line_no, "inHW");
    f.kernel = positiveField(tokens[5], line_no, "kernel");
    f.stride = positiveField(tokens[6], line_no, "stride");
    f.padding = intField(tokens[7], line_no, "padding");
    if (f.padding < 0)
        fatal("line ", line_no, ": field 'padding' must be >= 0, got ",
              f.padding);
    const long long padded = (long long)f.inHW + 2LL * f.padding;
    if (padded > std::numeric_limits<int>::max())
        fatal("line ", line_no, ": field 'padding' ", f.padding,
              " makes the padded input ", padded,
              " too large for an int");
    if (f.kernel > padded)
        fatal("line ", line_no, ": field 'kernel' ", f.kernel,
              " exceeds the padded input ", padded,
              " (inHW + 2 * padding), leaving no output");
    return f;
}

} // namespace

Network
parseNetwork(const std::string &text)
{
    Network net;
    std::istringstream stream(text);
    std::string line;
    int line_no = 0;

    while (std::getline(stream, line)) {
        ++line_no;
        const auto tokens = tokenize(line);
        if (tokens.empty())
            continue;

        if (tokens[0] == "network") {
            if (tokens.size() < 2)
                fatal("line ", line_no, ": 'network' needs a name");
            if (!net.name.empty())
                fatal("line ", line_no, ": duplicate 'network' line");
            net.name = tokens[1];
            continue;
        }

        if (net.name.empty())
            fatal("line ", line_no,
                  ": the first entry must be 'network <name>'");
        const std::string &kind = tokens[0];
        if (kind != "conv" && kind != "dwconv" && kind != "fc")
            fatal("line ", line_no, ": field 'kind' names an unknown "
                  "layer kind '", kind, "' (conv, dwconv, fc)");
        if (tokens.size() != 8)
            fatal("line ", line_no, ": expected 8 fields, got ",
                  tokens.size());

        const std::string &name = tokens[1];
        if (kind == "conv") {
            const SpatialFields f = spatialFields(tokens, line_no);
            net.layers.push_back(
                conv(name, f.inC, f.inHW,
                     positiveField(tokens[4], line_no, "outC"), f.kernel,
                     f.stride, f.padding));
        } else if (kind == "dwconv") {
            const SpatialFields f = spatialFields(tokens, line_no);
            unusedField(tokens[4], line_no, "outC", kind);
            Layer layer = depthwise(name, f.inC, f.inHW, f.stride);
            layer.kernelH = layer.kernelW = f.kernel;
            layer.padding = f.padding;
            layer.check();
            net.layers.push_back(layer);
        } else {
            unusedField(tokens[3], line_no, "inHW", kind);
            unusedField(tokens[5], line_no, "kernel", kind);
            unusedField(tokens[6], line_no, "stride", kind);
            unusedField(tokens[7], line_no, "padding", kind);
            net.layers.push_back(fullyConnected(
                name, positiveField(tokens[2], line_no, "inC"),
                positiveField(tokens[4], line_no, "outC")));
        }
    }

    if (net.layers.empty())
        fatal("description has no layers");
    net.check();
    return net;
}

std::string
formatNetwork(const Network &network)
{
    std::string out = "network " + network.name + "\n";
    out += "# kind  name  inC inHW outC kernel stride padding\n";
    char line[160];
    for (const auto &layer : network.layers) {
        switch (layer.kind) {
          case LayerKind::Conv:
            std::snprintf(line, sizeof(line),
                          "conv %s %d %d %d %d %d %d\n",
                          layer.name.c_str(), layer.inChannels,
                          layer.inHeight, layer.outChannels,
                          layer.kernelH, layer.stride, layer.padding);
            break;
          case LayerKind::DepthwiseConv:
            std::snprintf(line, sizeof(line),
                          "dwconv %s %d %d - %d %d %d\n",
                          layer.name.c_str(), layer.inChannels,
                          layer.inHeight, layer.kernelH, layer.stride,
                          layer.padding);
            break;
          case LayerKind::FullyConnected:
            std::snprintf(line, sizeof(line), "fc %s %d - %d - - -\n",
                          layer.name.c_str(), layer.inChannels,
                          layer.outChannels);
            break;
        }
        out += line;
    }
    return out;
}

} // namespace dnn
} // namespace supernpu
