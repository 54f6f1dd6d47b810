#include "common/units.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace astra
{

bool
tryParseBytes(const std::string &text, Bytes *out, std::string *err)
{
    if (text.empty()) {
        *err = "empty size string";
        return false;
    }
    const char *s = text.c_str();
    char *end = nullptr;
    double value = std::strtod(s, &end);
    if (end == s || !std::isfinite(value) || value < 0) {
        *err = "malformed size string '" + text + "'";
        return false;
    }
    while (*end && std::isspace(static_cast<unsigned char>(*end)))
        ++end;
    double mult = 1;
    switch (std::toupper(static_cast<unsigned char>(*end))) {
      case '\0':
        break;
      case 'B':
        ++end;
        break;
      case 'K':
        mult = static_cast<double>(KiB);
        ++end;
        break;
      case 'M':
        mult = static_cast<double>(MiB);
        ++end;
        break;
      case 'G':
        mult = static_cast<double>(GiB);
        ++end;
        break;
      default:
        *err = "malformed size suffix in '" + text + "'";
        return false;
    }
    // Allow a trailing 'B' / "iB" after K/M/G.
    if (*end == 'i' || *end == 'I')
        ++end;
    if (*end == 'b' || *end == 'B')
        ++end;
    if (*end != '\0') {
        *err = "trailing junk in size string '" + text + "'";
        return false;
    }
    *out = static_cast<Bytes>(std::llround(value * mult));
    return true;
}

Bytes
parseBytes(const std::string &text)
{
    Bytes out = 0;
    std::string err;
    if (!tryParseBytes(text, &out, &err))
        fatal("%s", err.c_str());
    return out;
}

std::string
formatBytes(Bytes bytes)
{
    if (bytes >= GiB) {
        double g = static_cast<double>(bytes) / static_cast<double>(GiB);
        return strprintf("%.4gGB", g);
    }
    if (bytes >= MiB) {
        double m = static_cast<double>(bytes) / static_cast<double>(MiB);
        return strprintf("%.4gMB", m);
    }
    if (bytes >= KiB) {
        double k = static_cast<double>(bytes) / static_cast<double>(KiB);
        return strprintf("%.4gKB", k);
    }
    return strprintf("%lluB", static_cast<unsigned long long>(bytes));
}

std::string
formatTicks(Tick ticks)
{
    double us = static_cast<double>(ticks) / 1e3;
    return strprintf("%llu cycles (%.3f us)",
                     static_cast<unsigned long long>(ticks), us);
}

} // namespace astra
