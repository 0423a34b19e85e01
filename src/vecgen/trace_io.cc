#include "trace_io.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "support/strings.hh"

namespace archval::vecgen
{

namespace
{

constexpr const char *magic = "archval-trace 1";

/** Parse a word token: 1-8 hex digits and nothing else. */
bool
parseHexWord(const std::string &token, uint32_t &word)
{
    if (token.empty() || token.size() > 8 ||
        !std::all_of(token.begin(), token.end(), [](unsigned char c) {
            return std::isxdigit(c) != 0;
        }))
        return false;
    word = static_cast<uint32_t>(std::stoul(token, nullptr, 16));
    return true;
}

/** Parse a forced-signal token: decimal digits only, at most 255
 *  (the range of one ForcedSignals element). */
bool
parseSignal(const std::string &token, uint8_t &value)
{
    if (token.empty())
        return false;
    unsigned parsed = 0;
    for (unsigned char c : token) {
        if (!std::isdigit(c))
            return false;
        parsed = parsed * 10 + (c - '0');
        if (parsed > std::numeric_limits<uint8_t>::max())
            return false;
    }
    value = static_cast<uint8_t>(parsed);
    return true;
}

} // namespace

std::string
serializeTrace(const TestTrace &trace)
{
    std::string out;
    out += magic;
    out += formatString("\ntrace %zu\ninstructions %llu\n",
                        trace.traceIndex,
                        static_cast<unsigned long long>(
                            trace.instructions));

    out += formatString("cycles %zu %zu\n", trace.cycles.size(),
                        rtl::numPpChoiceVars);
    for (const auto &signals : trace.cycles) {
        out += "C";
        for (uint8_t value : signals)
            out += formatString(" %u", static_cast<unsigned>(value));
        out += "\n";
    }

    auto word_section = [&out](const char *name,
                               const auto &words) {
        out += formatString("%s %zu\n", name, words.size());
        size_t column = 0;
        for (uint32_t word : words) {
            out += column == 0 ? "W" : "";
            out += formatString(" %08x", word);
            if (++column == 8) {
                out += "\n";
                column = 0;
            }
        }
        if (column != 0)
            out += "\n";
    };
    word_section("fetch", trace.fetchStream);
    word_section("retired", trace.retiredStream);
    word_section("inbox", trace.inbox);

    out += "end\n";
    return out;
}

Result<TestTrace>
deserializeTrace(const std::string &text)
{
    using Out = TestTrace;
    std::istringstream in(text);
    std::string line;

    auto err = [](const std::string &msg) {
        return Result<Out>::error("trace parse: " + msg);
    };

    if (!std::getline(in, line) || trimString(line) != magic)
        return err("bad magic");

    TestTrace trace;
    size_t num_cycles = 0, num_vars = 0;
    enum class Section
    {
        Header,
        Cycles,
        Words,
    };

    if (!std::getline(in, line) ||
        std::sscanf(line.c_str(), "trace %zu", &trace.traceIndex) != 1)
        return err("missing trace index");
    unsigned long long instrs = 0;
    if (!std::getline(in, line) ||
        std::sscanf(line.c_str(), "instructions %llu", &instrs) != 1)
        return err("missing instruction count");
    trace.instructions = instrs;

    if (!std::getline(in, line) ||
        std::sscanf(line.c_str(), "cycles %zu %zu", &num_cycles,
                    &num_vars) != 2)
        return err("missing cycle header");
    if (num_vars != rtl::numPpChoiceVars)
        return err("signal arity mismatch (different model "
                   "version?)");

    // Each cycle line is at least "C" and one " <digit>" per signal;
    // a count the rest of the input cannot hold is rejected before it
    // sizes an allocation.
    const std::streamoff pos = in.tellg();
    const size_t remaining =
        pos < 0 ? 0 : text.size() - static_cast<size_t>(pos);
    if (num_cycles > remaining / (2 * num_vars + 1))
        return err(formatString("cycle count %zu exceeds the input",
                                num_cycles));
    trace.cycles.reserve(num_cycles);
    for (size_t i = 0; i < num_cycles; ++i) {
        if (!std::getline(in, line) || line.empty() || line[0] != 'C')
            return err(formatString("bad cycle line %zu", i));
        std::istringstream cycle_line(line.substr(1));
        rtl::ForcedSignals signals{};
        std::string token;
        size_t v = 0;
        for (; cycle_line >> token; ++v) {
            if (v == num_vars)
                return err(formatString(
                    "cycle line %zu has more than %zu signals", i,
                    num_vars));
            if (!parseSignal(token, signals[v]))
                return err(formatString(
                    "bad signal value '%s' on cycle line %zu",
                    token.c_str(), i));
        }
        if (v < num_vars)
            return err(formatString("short cycle line %zu", i));
        trace.cycles.push_back(signals);
    }

    auto read_words = [&](const char *name,
                          auto &words) -> Result<bool> {
        size_t count = 0;
        std::string header;
        if (!std::getline(in, header))
            return Result<bool>::error("trace parse: missing " +
                                       std::string(name));
        std::string expect = std::string(name) + " %zu";
        if (std::sscanf(header.c_str(), expect.c_str(), &count) != 1)
            return Result<bool>::error("trace parse: bad " +
                                       std::string(name) + " header");
        size_t got = 0;
        while (got < count) {
            if (!std::getline(in, line) || line.empty() ||
                line[0] != 'W')
                return Result<bool>::error(
                    "trace parse: short " + std::string(name));
            std::istringstream word_line(line.substr(1));
            std::string token;
            while (got < count && word_line >> token) {
                uint32_t word = 0;
                if (!parseHexWord(token, word))
                    return Result<bool>::error(
                        "trace parse: bad " + std::string(name) +
                        " word '" + token + "'");
                words.push_back(word);
                ++got;
            }
        }
        return true;
    };

    if (auto r = read_words("fetch", trace.fetchStream); !r.ok())
        return err(r.errorMessage());
    if (auto r = read_words("retired", trace.retiredStream); !r.ok())
        return err(r.errorMessage());
    if (auto r = read_words("inbox", trace.inbox); !r.ok())
        return err(r.errorMessage());

    if (!std::getline(in, line) || trimString(line) != "end")
        return err("missing end marker");
    return trace;
}

Result<bool>
writeTraceFile(const TestTrace &trace, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return Result<bool>::error("cannot open " + path);
    out << serializeTrace(trace);
    out.close();
    if (!out)
        return Result<bool>::error("write failed for " + path);
    return true;
}

Result<TestTrace>
readTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Result<TestTrace>::error("cannot open " + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return deserializeTrace(buffer.str());
}

std::string
traceFileName(size_t index)
{
    return formatString("trace_%06zu.avt", index);
}

Result<size_t>
writeTraceSet(const std::vector<TestTrace> &traces,
              const std::string &directory)
{
    std::error_code ec;
    std::filesystem::create_directories(directory, ec);
    if (ec)
        return Result<size_t>::error("cannot create " + directory +
                                     ": " + ec.message());
    for (const TestTrace &trace : traces) {
        auto r = writeTraceFile(
            trace, directory + "/" + traceFileName(trace.traceIndex));
        if (!r.ok())
            return Result<size_t>::error(r.errorMessage());
    }
    return traces.size();
}

Result<std::vector<TestTrace>>
readTraceSet(const std::string &directory)
{
    using Out = std::vector<TestTrace>;
    std::error_code ec;
    std::vector<std::string> paths;
    for (const auto &entry :
         std::filesystem::directory_iterator(directory, ec)) {
        if (entry.path().extension() == ".avt")
            paths.push_back(entry.path().string());
    }
    if (ec)
        return Result<Out>::error("cannot read " + directory + ": " +
                                  ec.message());
    std::sort(paths.begin(), paths.end());

    std::vector<TestTrace> traces;
    for (const std::string &path : paths) {
        auto trace = readTraceFile(path);
        if (!trace.ok())
            return Result<Out>::error(trace.errorMessage());
        traces.push_back(trace.take());
    }
    return traces;
}

} // namespace archval::vecgen
