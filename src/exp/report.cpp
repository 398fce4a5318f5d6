#include "exp/report.hpp"

#include <filesystem>
#include <fstream>

namespace dhtlb::exp {

bool write_file(const std::string& path, const std::string& content) {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
    if (ec) return false;
  }
  std::ofstream out(p, std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace dhtlb::exp
